package engine_test

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"sdnpc/internal/engine"
	"sdnpc/internal/fivetuple"
)

// firstMatch returns the first rule of the best-first list live matching h.
func firstMatch(live []fivetuple.Rule, h fivetuple.Header) (fivetuple.Rule, bool) {
	for _, r := range live {
		if r.Matches(h) {
			return r, true
		}
	}
	return fivetuple.Rule{}, false
}

// TestIncrementalDeltaMatchesInstall drives every incremental packet engine
// through a random insert/delete sequence — inserted priorities collide with
// live ones, so ties are placed too — and asserts verdict-for-verdict
// agreement, through Verdict, with a freshly installed twin and the linear
// oracle after every op. Every rule carries its own action argument, so a
// verdict names exactly one rule.
func TestIncrementalDeltaMatchesInstall(t *testing.T) {
	for _, name := range engine.IncrementalPacketEngineNames() {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(101))
			rules := randomRules(rng, 40)
			eng, err := engine.NewPacket(name, engine.Spec{})
			if err != nil {
				t.Fatal(err)
			}
			inc, ok := eng.(engine.IncrementalPacketEngine)
			if !ok {
				t.Fatalf("%q does not implement IncrementalPacketEngine", name)
			}
			if err := inc.Install(rules); err != nil {
				t.Fatal(err)
			}
			if cost := inc.UpdateCost(); cost.Deltas != 0 || cost.Degradation != 0 {
				t.Fatalf("UpdateCost right after Install = %+v, want zero debt", cost)
			}

			live := append([]fivetuple.Rule(nil), rules...)
			pool := randomRules(rng, 30)
			for i := range pool {
				pool[i].ActionArg += uint32(len(rules))
			}
			for op := 0; op < 60; op++ {
				if (rng.Intn(2) == 0 || len(live) == 0) && len(pool) > 0 {
					r := pool[0]
					r.Priority = rng.Intn(50)
					pool = pool[1:]
					if _, err := inc.InsertRule(r); err != nil {
						t.Fatalf("op %d InsertRule(%s): %v", op, r, err)
					}
					at := sort.Search(len(live), func(i int) bool { return live[i].Priority > r.Priority })
					live = slices.Insert(live, at, r)
				} else {
					idx := rng.Intn(len(live))
					r := live[idx]
					if _, err := inc.DeleteRule(r); err != nil {
						t.Fatalf("op %d DeleteRule(%s): %v", op, r, err)
					}
					// The first installed of r's matches and priority goes.
					idx = slices.IndexFunc(live, func(q fivetuple.Rule) bool { return q.Priority == r.Priority && q.SameMatch(r) })
					live = slices.Delete(live, idx, idx+1)
				}
				headers := probeHeaders(rng, live, 25)
				fresh, err := engine.NewPacket(name, engine.Spec{})
				if err != nil {
					t.Fatal(err)
				}
				if err := fresh.Install(slices.Clone(live)); err != nil {
					t.Fatalf("op %d fresh Install over %d rules: %v", op, len(live), err)
				}
				for _, h := range headers {
					want, wantOK := firstMatch(live, h)
					gotID, gotOK, _ := inc.LookupPacket(h)
					if gotOK != wantOK || (wantOK && inc.Verdict(gotID) != want.Verdict()) {
						t.Fatalf("op %d: delta path LookupPacket(%s) = (%d,%v), oracle (%s,%v)",
							op, h, gotID, gotOK, want, wantOK)
					}
					freshID, freshOK, _ := fresh.LookupPacket(h)
					if gotOK != freshOK || (gotOK && inc.Verdict(gotID) != fresh.Verdict(freshID)) {
						t.Fatalf("op %d: delta path LookupPacket(%s) = (%d,%v), fresh Install (%d,%v)",
							op, h, gotID, gotOK, freshID, freshOK)
					}
				}
			}
			if cost := inc.UpdateCost(); cost.Deltas != 60 {
				t.Errorf("UpdateCost.Deltas = %d after 60 ops, want 60", cost.Deltas)
			}
			// A full Install clears the delta debt.
			if err := inc.Install(live); err != nil {
				t.Fatal(err)
			}
			if cost := inc.UpdateCost(); cost.Deltas != 0 || cost.DeadIDs != 0 || cost.Degradation != 0 {
				t.Errorf("UpdateCost after re-Install = %+v, want zero debt", cost)
			}
		})
	}
}

// TestIncrementalCloneIsolation asserts the copy-on-write contract both
// ways: a delta applied to a cloned handle is never observable through the
// original, and a delta applied to the original after a Clone is never
// observable through the clone, in either verdicts or delta accounting.
func TestIncrementalCloneIsolation(t *testing.T) {
	for _, name := range engine.IncrementalPacketEngineNames() {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(103))
			rules := randomRules(rng, 30)
			headers := probeHeaders(rng, rules, 40)
			eng, err := engine.NewPacket(name, engine.Spec{})
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.Install(rules); err != nil {
				t.Fatal(err)
			}
			type verdict struct {
				id int
				ok bool
			}
			before := make([]verdict, len(headers))
			for i, h := range headers {
				id, ok, _ := eng.LookupPacket(h)
				before[i] = verdict{id, ok}
			}

			cl := eng.Clone().(engine.IncrementalPacketEngine)
			for _, r := range rules[:10] {
				if _, err := cl.DeleteRule(r); err != nil {
					t.Fatalf("DeleteRule on clone: %v", err)
				}
			}
			orig := eng.(engine.IncrementalPacketEngine)
			if cost := orig.UpdateCost(); cost.Deltas != 0 {
				t.Errorf("original UpdateCost.Deltas = %d after clone deltas, want 0", cost.Deltas)
			}
			if cost := cl.UpdateCost(); cost.Deltas != 10 {
				t.Errorf("clone UpdateCost.Deltas = %d, want 10", cost.Deltas)
			}
			for i, h := range headers {
				id, ok, _ := eng.LookupPacket(h)
				if id != before[i].id || ok != before[i].ok {
					t.Fatalf("original verdict for %s changed after clone deltas: (%d,%v) -> (%d,%v)",
						h, before[i].id, before[i].ok, id, ok)
				}
			}

			// The reverse direction: deltas on the original after a Clone
			// leave the clone as it was.
			cl2 := eng.Clone().(engine.IncrementalPacketEngine)
			for _, r := range rules[:10] {
				if _, err := orig.DeleteRule(r); err != nil {
					t.Fatalf("DeleteRule on original: %v", err)
				}
			}
			if cost := cl2.UpdateCost(); cost.Deltas != 0 {
				t.Errorf("clone UpdateCost.Deltas = %d after original deltas, want 0", cost.Deltas)
			}
			if cost := orig.UpdateCost(); cost.Deltas != 10 {
				t.Errorf("original UpdateCost.Deltas = %d, want 10", cost.Deltas)
			}
			for i, h := range headers {
				id, ok, _ := cl2.LookupPacket(h)
				if id != before[i].id || ok != before[i].ok {
					t.Fatalf("clone verdict for %s changed after original deltas: (%d,%v) -> (%d,%v)",
						h, before[i].id, before[i].ok, id, ok)
				}
			}
		})
	}
}

// TestIncrementalDeleteRejectsDivergentMatch pins the divergent-view check:
// DeleteRule names a rule, and one no installed rule matches exactly
// (Rule.SameMatch) at its priority — a rule of the priority every rule of a
// wire tenant carries, 0, but matches none has, or an installed rule's
// matches at another priority — must be refused with the structure left
// answering as before the call.
func TestIncrementalDeleteRejectsDivergentMatch(t *testing.T) {
	for _, name := range engine.IncrementalPacketEngineNames() {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(107))
			rules := randomRules(rng, 30)
			for i := range rules {
				rules[i].Priority = 0
			}
			headers := probeHeaders(rng, rules, 40)
			eng, err := engine.NewPacket(name, engine.Spec{})
			if err != nil {
				t.Fatal(err)
			}
			inc := eng.(engine.IncrementalPacketEngine)
			if err := inc.Install(slices.Clone(rules)); err != nil {
				t.Fatal(err)
			}
			before := make([]int, len(headers))
			for i, h := range headers {
				before[i], _, _ = inc.LookupPacket(h)
			}
			absent := rules[0]
			absent.SrcPrefix = fivetuple.MustParsePrefix("203.0.113.7/32")
			absent.DstPort = fivetuple.ExactPort(7)
			elsewhere := rules[1]
			elsewhere.Priority = 1
			for _, r := range []fivetuple.Rule{absent, elsewhere} {
				if slices.ContainsFunc(rules, func(q fivetuple.Rule) bool { return q.Priority == r.Priority && q.SameMatch(r) }) {
					t.Fatalf("probe rule %s is installed", r)
				}
				if _, err := inc.DeleteRule(r); err == nil {
					t.Fatalf("DeleteRule(%s priority %d) accepted a rule that is not installed", r, r.Priority)
				}
			}
			if cost := inc.UpdateCost(); cost.Deltas != 0 {
				t.Errorf("UpdateCost.Deltas = %d after a refused delete, want 0", cost.Deltas)
			}
			for i, h := range headers {
				if id, _, _ := inc.LookupPacket(h); id != before[i] {
					t.Fatalf("verdict for %s changed across a refused delete: rule %d -> %d", h, before[i], id)
				}
			}
			if _, err := inc.DeleteRule(rules[1]); err != nil {
				t.Fatalf("DeleteRule of an installed rule: %v", err)
			}
		})
	}
}

// TestIncrementalDeltaOnEmptyEngineFails pins the fallback contract: a delta
// against an engine with no built structure must fail cleanly (the
// classifier then falls back to a full rebuild) rather than build implicitly.
func TestIncrementalDeltaOnEmptyEngineFails(t *testing.T) {
	for _, name := range engine.IncrementalPacketEngineNames() {
		t.Run(name, func(t *testing.T) {
			eng, err := engine.NewPacket(name, engine.Spec{})
			if err != nil {
				t.Fatal(err)
			}
			inc := eng.(engine.IncrementalPacketEngine)
			r := fivetuple.Wildcard(0, fivetuple.ActionForward)
			if _, err := inc.InsertRule(r); err == nil {
				t.Error("InsertRule on an empty engine should fail")
			}
			if _, err := inc.DeleteRule(r); err == nil {
				t.Error("DeleteRule on an empty engine should fail")
			}
			if err := inc.Install([]fivetuple.Rule{r}); err != nil {
				t.Fatal(err)
			}
			if _, err := inc.DeleteRule(fivetuple.Wildcard(5, fivetuple.ActionForward)); err == nil {
				t.Error("DeleteRule of a rule at a priority it was not installed with should fail")
			}
		})
	}
}

// maxFuzzDeltas caps the delta chain one FuzzIncrementalDeltas input decodes
// to, and maxFuzzLive the rules live at once: enough to run far past 64
// deltas, past 0.5 degradation and into the dead-id bound, few enough that
// checking every state keeps an execution fast.
const (
	maxFuzzDeltas = 512
	maxFuzzLive   = 80
)

// fuzzDeltaPool decodes the rules a delta chain draws from: 16 overlapping
// rules from the seed byte, every third one non-terminating so
// LookupPacketAll's chains have something to cut, and each with its own
// action argument, so that a verdict names one pool rule at one priority.
func fuzzDeltaPool(seed byte) []fivetuple.Rule {
	pool := randomRules(rand.New(rand.NewSource(int64(seed))), 16)
	for i := range pool {
		pool[i].NonTerminating = i%3 == 0
		pool[i].ActionArg = uint32(i + 1)
	}
	return pool
}

// FuzzIncrementalDeltas drives decoded insert/delete chains of any length
// through every incremental packet engine's delta ops, with no update policy
// in between: the chain runs past 64 deltas, past 0.5 degradation and up to
// the dead-id bound, where a refused delete is turned into a full Install as
// the classifier does. Each op runs on a Clone of the previous handle, as
// each publish does. After every op, LookupPacket / Verdict and
// LookupPacketAll's order and cut must match a best-first oracle.
//
// Input: byte 0 seeds the rule pool, byte 1 sizes the installed base (0–15
// pool rules), and every further byte is one op. An op with the high bit
// clear inserts pool rule b&15 at priority (b>>4)&7, so ties are frequent;
// one with it set, or any op once maxFuzzLive rules are live, deletes live
// rule (b&127) mod the live count.
func FuzzIncrementalDeltas(f *testing.F) {
	chain := func(seed, base byte, n int, op func(i int) byte) []byte {
		data := []byte{seed, base}
		for i := range n {
			data = append(data, op(i))
		}
		return data
	}
	// Overlapping inserts only: overfull leaves and long tie runs.
	f.Add(chain(1, 4, 200, func(i int) byte { return byte(i*7) & 0x7f }))
	// Delete/insert churn over a small base: the dead ids reach their bound.
	f.Add(chain(2, 8, 400, func(i int) byte {
		if i%2 == 1 {
			return 0x80 | byte(i*13)
		}
		return byte(i*5) & 0x7f
	}))
	// Drain to empty and refill.
	f.Add(chain(3, 15, 60, func(i int) byte {
		if i < 30 {
			return 0x80
		}
		return byte(i) & 0x7f
	}))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			t.Skip("input too short to decode a delta chain")
		}
		pool := fuzzDeltaPool(data[0])
		var live []fivetuple.Rule
		for i := range int(data[1] % 16) {
			r := pool[i]
			r.Priority = i % 8
			live = slices.Insert(live, sort.Search(len(live), func(j int) bool { return live[j].Priority > r.Priority }), r)
		}
		ops := data[2:]
		if len(ops) > maxFuzzDeltas {
			ops = ops[:maxFuzzDeltas]
		}
		headers := probeHeaders(rand.New(rand.NewSource(int64(data[0]))), pool, 16)
		for _, name := range engine.IncrementalPacketEngineNames() {
			runDeltaChain(t, name, slices.Clone(live), pool, ops, headers)
		}
	})
}

// runDeltaChain applies one decoded chain to the named engine, checking
// every state against the best-first oracle over live. A delta the contract
// lets the engine refuse is followed by a full Install over live, as the
// classifier follows it.
func runDeltaChain(t *testing.T, name string, live, pool []fivetuple.Rule, ops []byte, headers []fivetuple.Header) {
	eng, err := engine.NewPacket(name, engine.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	inc := eng.(engine.IncrementalPacketEngine)
	// emptyBuild records that the last Install had no rules: an engine may
	// then hold no structure to splice into and refuse every delta.
	var emptyBuild bool
	rebuild := func(op int) {
		t.Helper()
		if err := inc.Install(slices.Clone(live)); err != nil {
			t.Fatalf("%s op %d: Install over %d rules: %v", name, op, len(live), err)
		}
		if cost := inc.UpdateCost(); cost != (engine.UpdateCost{}) {
			t.Fatalf("%s op %d: UpdateCost after Install = %+v, want zero debt", name, op, cost)
		}
		emptyBuild = len(live) == 0
		checkDeltaOracle(t, name, op, inc, live, headers)
	}
	rebuild(-1)
	for i, b := range ops {
		inc = inc.Clone().(engine.IncrementalPacketEngine)
		before := inc.UpdateCost()
		if b&0x80 == 0 && len(live) < maxFuzzLive {
			r := pool[b&15]
			r.Priority = int(b>>4) & 7
			_, err := inc.InsertRule(r)
			if err != nil && !emptyBuild {
				t.Fatalf("%s op %d: InsertRule(%s): %v", name, i, r, err)
			}
			live = slices.Insert(live, sort.Search(len(live), func(j int) bool { return live[j].Priority > r.Priority }), r)
			if err != nil {
				rebuild(i)
				continue
			}
		} else {
			if len(live) == 0 {
				continue
			}
			r := live[int(b&0x7f)%len(live)]
			_, err := inc.DeleteRule(r)
			if err != nil {
				// The only refusal the contract allows for an installed
				// rule: the dead ids would outnumber the live ones plus 64.
				if before.DeadIDs+1 <= len(live)-1+64 {
					t.Fatalf("%s op %d: DeleteRule(%s) refused at %d dead ids beside %d live rules: %v",
						name, i, r, before.DeadIDs, len(live), err)
				}
				if after := inc.UpdateCost(); after != before {
					t.Fatalf("%s op %d: a refused delete changed the debt %+v -> %+v", name, i, before, after)
				}
				checkDeltaOracle(t, name, i, inc, live, headers)
			}
			at := slices.IndexFunc(live, func(q fivetuple.Rule) bool { return q.Priority == r.Priority && q.SameMatch(r) })
			live = slices.Delete(live, at, at+1)
			if err != nil {
				rebuild(i)
				continue
			}
		}
		cost := inc.UpdateCost()
		if cost.Deltas != before.Deltas+1 || cost.DeadIDs > len(live)+64 || cost.Degradation < 0 || cost.Degradation > 1 {
			t.Fatalf("%s op %d: UpdateCost %+v after %+v over %d live rules", name, i, cost, before, len(live))
		}
		checkDeltaOracle(t, name, i, inc, live, headers)
	}
}

// checkDeltaOracle compares one engine state with the best-first list live:
// LookupPacket names, through Verdict, the first matching rule, and
// LookupPacketAll lists the matching rules in order up to and including the
// first terminating one. The rules of live carry distinct action arguments
// (fuzzDeltaPool's), so equal verdicts name the same rule.
func checkDeltaOracle(t *testing.T, name string, op int, eng engine.PacketEngine, live []fivetuple.Rule, headers []fivetuple.Header) {
	t.Helper()
	multi, _ := eng.(engine.MultiMatchPacketEngine)
	var ids []int
	for _, h := range headers {
		want, wantOK := firstMatch(live, h)
		id, ok, _ := eng.LookupPacket(h)
		if ok != wantOK || (ok && eng.Verdict(id) != want.Verdict()) {
			t.Fatalf("%s op %d: LookupPacket(%s) = (%d, %v), oracle (%s, %v)", name, op, h, id, ok, want, wantOK)
		}
		if multi == nil {
			continue
		}
		ids, _ = multi.LookupPacketAll(h, ids[:0])
		n := 0
		for _, r := range live {
			if !r.Matches(h) {
				continue
			}
			if n >= len(ids) || eng.Verdict(ids[n]) != r.Verdict() {
				t.Fatalf("%s op %d: LookupPacketAll(%s) = %v, diverges from the oracle at match %d (%s)", name, op, h, ids, n, r)
			}
			n++
			if !r.NonTerminating {
				break
			}
		}
		if n != len(ids) {
			t.Fatalf("%s op %d: LookupPacketAll(%s) = %d ids, oracle %d", name, op, h, len(ids), n)
		}
	}
}
