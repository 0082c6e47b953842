package main

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"sdnpc"
	"sdnpc/internal/engine"
)

const smokeSeconds = 0.2

// smokeLadder is a ladder small enough for a unit test.
var smokeLadder = ladderSize{headers: 2048, ops: 4, minRung: time.Millisecond}

// Every workload runs end to end for a fraction of a second, answers
// correctly and reports every end-to-end metric as a positive number.
func TestSmokeEndToEnd(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			in, err := w.generate(1)
			if err != nil {
				t.Fatal(err)
			}
			e2e, _, err := runEndToEnd(w, in, 1, newPlan(smokeSeconds), nil)
			if err != nil {
				t.Fatal(err)
			}
			if e2e.failed != 0 || e2e.attempted < 2*verifySample {
				t.Errorf("attempted %d failed %d", e2e.attempted, e2e.failed)
			}
			for _, d := range endToEndMetrics {
				if v, ok := e2e.metrics[d.name]; !ok || v <= 0 {
					t.Errorf("%s = %v (present %t), want a positive number", d.name, v, ok)
				}
			}
		})
	}
}

// A traced run reports every per-layer metric, writes its span file, and the
// layer predictions that hold by construction do hold.
func TestSmokeTraced(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			in, err := w.generate(1)
			if err != nil {
				t.Fatal(err)
			}
			res, err := runTraced(w, in, 1, newPlan(smokeSeconds), smokeLadder, 0, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Errorf("attempted %d failed %d", res.Attempted, res.Failed)
			}
			for _, d := range perLayerMetrics {
				if _, ok := res.Metrics[d.name]; !ok {
					t.Errorf("%s missing from the traced result", d.name)
				}
			}
			value := func(name string) float64 { return res.Metrics[name].Value }
			if !raceEnabled && value("core.allocs_per_lookup") != 0 {
				t.Errorf("core.allocs_per_lookup = %v, want 0", value("core.allocs_per_lookup"))
			}
			if cached := w.cacheCapacity > 0; cached != (value("cache.hit_ratio") > 0) {
				t.Errorf("cache.hit_ratio = %v on a workload with cache=%t", value("cache.hit_ratio"), cached)
			}
			if w.wire != (value("server.handler_ns_per_pkt") > 0) {
				t.Errorf("server.handler_ns_per_pkt = %v on a workload with wire=%t", value("server.handler_ns_per_pkt"), w.wire)
			}
			if field := w.engine == ""; field != (value("core.combinations_per_lookup") > 1) {
				t.Errorf("core.combinations_per_lookup = %v on a workload with field tier=%t", value("core.combinations_per_lookup"), field)
			}
		})
	}
}

// The same seed gives the same inputs and the same op sequence; another seed
// gives different ones.
func TestSeedDeterminesInputs(t *testing.T) {
	for _, w := range workloads {
		a, err := w.generate(7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := w.generate(7)
		c, _ := w.generate(8)
		if !reflect.DeepEqual(a.trace, b.trace) {
			t.Errorf("%s: same seed, different trace", w.name)
		}
		if reflect.DeepEqual(a.trace, c.trace) {
			t.Errorf("%s: different seeds, same trace", w.name)
		}
		ops := func(seed int64) []int {
			ch := newChurn(a.rules, seed)
			out := make([]int, 500)
			for i := range out {
				op, _ := ch.next()
				out[i] = op.Rule.Priority
				if op.Delete {
					out[i] = -out[i] - 1
				}
			}
			return out
		}
		if !reflect.DeepEqual(ops(7), ops(7)) {
			t.Errorf("%s: same seed, different op sequence", w.name)
		}
		if reflect.DeepEqual(ops(7), ops(8)) {
			t.Errorf("%s: different seeds, same op sequence", w.name)
		}
	}
}

// The churn keeps the installed rule count within churnDepth of the full
// set, never touches the trailing default rule, never deletes a rule that is
// out or inserts one that is in, and repeats exactly every churnCycle ops
// after the priming deletes.
func TestChurnIsABalancedCycle(t *testing.T) {
	in, err := workloads[0].generate(1)
	if err != nil {
		t.Fatal(err)
	}
	ch := newChurn(in.rules, 1)
	last := in.rules.Len() - 1
	out := map[int]bool{}
	apply := func(i int, op sdnpc.UpdateOp) {
		if op.Rule.Priority == last {
			t.Fatal("churn touched the default rule")
		}
		if op.Delete == out[op.Rule.Priority] {
			t.Fatalf("op %d: delete=%t of a rule whose deleted state is %t", i, op.Delete, out[op.Rule.Priority])
		}
		out[op.Rule.Priority] = op.Delete
		missing := 0
		for _, gone := range out {
			if gone {
				missing++
			}
		}
		if missing > churnDepth {
			t.Fatalf("op %d: %d rules missing, want at most %d", i, missing, churnDepth)
		}
	}
	for i, op := range ch.prime() {
		apply(i-churnDepth, op)
	}
	var ops []sdnpc.UpdateOp
	for i := 0; i < 3*churnCycle; i++ {
		op, pos := ch.next()
		if pos != i%churnCycle {
			t.Fatalf("op %d has position %d", i, pos)
		}
		apply(i, op)
		ops = append(ops, op)
	}
	if !reflect.DeepEqual(ops[:churnCycle], ops[churnCycle:2*churnCycle]) || !reflect.DeepEqual(ops[:churnCycle], ops[2*churnCycle:]) {
		t.Error("the op sequence does not repeat every churnCycle ops")
	}
}

// Every trace is a whole number of lookup groups, so a group is always the
// same batches.
func TestTraceIsWholeGroups(t *testing.T) {
	for _, w := range workloads {
		if batches := w.headers / batchSize; w.headers%batchSize != 0 || batches%w.groupBatches != 0 {
			t.Errorf("%s: %d headers are not a whole number of groups of %d batches", w.name, w.headers, w.groupBatches)
		}
	}
}

// The counters read around the fixed-work ladder repeat exactly for one seed.
func TestLadderCountsRepeat(t *testing.T) {
	w := workloads[0] // field tier: the workload whose counts are not trivially 1
	counts := func() map[string]float64 {
		in, err := w.generate(3)
		if err != nil {
			t.Fatal(err)
		}
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		ld := &ladder{w: w, in: in, size: smokeLadder, hs: in.trace[:smokeLadder.headers], rec: newRecorder(), m: map[string]float64{}, rules: in.rules.Rules()}
		if err := ld.lookupLadder(); err != nil {
			t.Fatal(err)
		}
		names := []string{
			"core.combinations_per_lookup", "core.filter_probes_per_lookup",
			"core.field_accesses_per_lookup", "core.label_fetches_per_lookup",
		}
		if !raceEnabled {
			names = append(names, "core.allocs_per_lookup")
		}
		out := map[string]float64{}
		for _, name := range names {
			out[name] = ld.m[name]
		}
		return out
	}
	first, second := counts(), counts()
	if !reflect.DeepEqual(first, second) {
		t.Errorf("same seed, different counts:\n%v\n%v", first, second)
	}
	if first["core.combinations_per_lookup"] <= 1 {
		t.Errorf("field tier examined %v combinations per lookup; the cross-product should examine many", first["core.combinations_per_lookup"])
	}
}

// The field tier the ladder builds for itself does, header by header, what
// the classifier's own tier reports having done: the same engine memory
// accesses, the same number of non-empty label lists, and label lists whose
// cross-product is the number of combinations the core examined.
func TestFieldTierReplicaMatchesCore(t *testing.T) {
	w := workloads[0]
	in, err := w.generate(5)
	if err != nil {
		t.Fatal(err)
	}
	ft, err := buildFieldTier(in.rules.Rules(), "mbt")
	if err != nil {
		t.Fatal(err)
	}
	cc, err := newCore(w, in.rules, false)
	if err != nil {
		t.Fatal(err)
	}
	budget := cc.Config().MaxCrossProductProbes
	for _, h := range in.trace[:1024] {
		want := cc.Lookup(h)
		accesses := ft.lookup(h)
		nonEmpty, combos := 0, 1
		for i := range ft.lists {
			if n := ft.lists[i].Len(); n > 0 {
				nonEmpty++
				combos = min(combos*n, budget)
			} else {
				combos = 0
			}
		}
		if nonEmpty < len(ft.lists) {
			combos = 0
		}
		if accesses != want.FieldAccesses || nonEmpty != want.LabelFetches || combos != want.Combinations {
			t.Fatalf("header %v: replica made %d accesses, %d non-empty lists, %d combinations; the core reports %d, %d, %d",
				h, accesses, nonEmpty, combos, want.FieldAccesses, want.LabelFetches, want.Combinations)
		}
	}
}

// On the packet tier the structure rung and the engine rung answer every
// header with the same rule in the same number of memory accesses: the
// structure the ladder builds is the one the engine adapter wraps.
func TestPacketStructureMatchesEngine(t *testing.T) {
	for _, w := range workloads {
		if w.engine == "" {
			continue
		}
		in, err := w.generate(5)
		if err != nil {
			t.Fatal(err)
		}
		alg, err := buildAlgo(w.engine, in.rules)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := engine.NewPacket(w.engine, engine.Spec{})
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Install(in.rules.Rules()); err != nil {
			t.Fatal(err)
		}
		for _, h := range in.trace[:1024] {
			ai, aok, aacc := alg.Classify(h)
			ei, eok, eacc := eng.LookupPacket(h)
			if ai != ei || aok != eok || aacc != eacc {
				t.Fatalf("%s, header %v: structure says (%d, %t, %d accesses), engine (%d, %t, %d)", w.name, h, ai, aok, aacc, ei, eok, eacc)
			}
		}
	}
}
