package fieldtier

import (
	"errors"
	"slices"
	"sort"
	"testing"

	"sdnpc/internal/algo/portreg"
	"sdnpc/internal/classbench"
	"sdnpc/internal/engine"
	"sdnpc/internal/fivetuple"
	"sdnpc/internal/label"
)

// The field engine is not in engine.IncrementalPacketEngineNames, so the
// engine package's delta harness does not reach it; these tests run the same
// checks on it directly, for the two IPalg_s engines of the paper. Every rule
// carries a priority of its own: the field engine answers a header matching
// two rules of one priority with either, where the whole-packet engines keep
// installation order (ROADMAP.md, "One answer per header: field-tier
// ties"), so an oracle over tied rules could not name the answer.

// fieldEngines are the IP-segment engines the chains run on.
var fieldEngines = []string{"mbt", "bst"}

func newEngine(t testing.TB, name string) *Engine {
	t.Helper()
	e, err := New(name, 128, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// chainPool is the rule pool a chain draws from: 48 overlapping ACL rules,
// the priority of each its index, and the headers of a trace over them.
func chainPool(seed byte) ([]fivetuple.Rule, []fivetuple.Header) {
	rs := classbench.Generate(classbench.Config{Class: classbench.ACL, Rules: 48, Seed: int64(seed)})
	trace := classbench.GenerateTrace(rs, classbench.TraceConfig{Packets: 64, Seed: int64(seed), MatchFraction: 0.9})
	return rs.Rules(), trace
}

// requireOracle compares one engine state with the best-first list live:
// LookupPacket names, through Verdict, the first matching rule.
func requireOracle(t testing.TB, name string, op int, e engine.PacketEngine, live []fivetuple.Rule, headers []fivetuple.Header) {
	t.Helper()
	for _, h := range headers {
		i := slices.IndexFunc(live, func(r fivetuple.Rule) bool { return r.Matches(h) })
		id, ok, _ := e.LookupPacket(h)
		if ok != (i >= 0) || (ok && e.Verdict(id) != live[i].Verdict()) {
			var want any = "no match"
			if i >= 0 {
				want = live[i]
			}
			t.Fatalf("%s op %d: LookupPacket(%s) = (%d, %v), oracle %v", name, op, h, id, ok, want)
		}
	}
}

// runChain applies one decoded insert/delete chain to the named field
// engine, each op on a Clone of the previous handle as each publish does,
// and checks every state against the oracle. An op with the high bit clear
// inserts pool rule b mod the pool size when it is not live; any other op
// deletes live rule (b&127) mod the live count. The engine never declines a
// delta and never reports debt.
func runChain(t testing.TB, name string, seed byte, ops []byte) {
	pool, headers := chainPool(seed)
	e := newEngine(t, name)
	var live []fivetuple.Rule
	insert := func(r fivetuple.Rule) {
		live = slices.Insert(live, sort.Search(len(live), func(j int) bool { return live[j].Priority > r.Priority }), r)
	}
	for i, b := range ops {
		e = e.Clone().(*Engine)
		r := pool[int(b)%len(pool)]
		var err error
		if b&0x80 == 0 && !slices.Contains(live, r) {
			_, err = e.InsertRule(r)
			insert(r)
		} else if len(live) > 0 {
			r = live[int(b&0x7f)%len(live)]
			_, err = e.DeleteRule(r)
			live = slices.DeleteFunc(live, func(q fivetuple.Rule) bool { return q == r })
		}
		if err != nil {
			t.Fatalf("%s op %d: %v", name, i, err)
		}
		if cost := e.UpdateCost(); cost != (engine.UpdateCost{}) {
			t.Fatalf("%s op %d: UpdateCost = %+v, want no debt", name, i, cost)
		}
		e.Prepare()
		requireOracle(t, name, i, e, live, headers)
	}
	// The chain leaves what an Install over its rules builds, label for
	// label.
	fresh := newEngine(t, name)
	if err := fresh.Install(live); err != nil {
		t.Fatal(err)
	}
	got, want := e.Memory(), fresh.Memory()
	if got.LabelTableBits != want.LabelTableBits || got.RuleFilterUsedBits != want.RuleFilterUsedBits ||
		e.Labels().TotalLabels() != fresh.Labels().TotalLabels() {
		t.Fatalf("%s: after the chain %+v with %d labels, a fresh Install %+v with %d",
			name, got, e.Labels().TotalLabels(), want, fresh.Labels().TotalLabels())
	}
}

// FuzzFieldDeltas runs decoded chains (byte 0 seeds the pool, every further
// byte is one op, as in runChain) through both field engines. The seeds
// include four 300-op chains.
func FuzzFieldDeltas(f *testing.F) {
	f.Add([]byte{1, 0, 1, 2, 3, 0x80, 4, 0x81, 5, 6, 0x82, 0x83, 0x84})
	for seed := byte(1); seed <= 4; seed++ {
		chain := []byte{seed}
		for i := range 300 {
			chain = append(chain, byte(i*37+int(seed)*11)^byte(i>>3))
		}
		f.Add(chain)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			t.Skip("input too short to decode a chain")
		}
		ops := data[1:]
		if len(ops) > 300 {
			ops = ops[:300]
		}
		for _, name := range fieldEngines {
			runChain(t, name, data[0], ops)
		}
	})
}

// TestDeltaOnCloneLeavesOriginal: deltas applied to a Clone never change
// what the original answers, though the two share the label bank.
func TestDeltaOnCloneLeavesOriginal(t *testing.T) {
	for _, name := range fieldEngines {
		t.Run(name, func(t *testing.T) {
			pool, headers := chainPool(9)
			e := newEngine(t, name)
			if err := e.Install(pool[:32]); err != nil {
				t.Fatal(err)
			}
			before := make([]fivetuple.Verdict, len(headers))
			for i, h := range headers {
				if id, ok, _ := e.LookupPacket(h); ok {
					before[i] = e.Verdict(id)
				}
			}
			cl := e.Clone().(*Engine)
			for _, r := range pool[:16] {
				if _, err := cl.DeleteRule(r); err != nil {
					t.Fatal(err)
				}
			}
			for _, r := range pool[32:] {
				if _, err := cl.InsertRule(r); err != nil {
					t.Fatal(err)
				}
			}
			cl.Prepare()
			requireOracle(t, name, 0, cl, pool[16:], headers)
			for i, h := range headers {
				var got fivetuple.Verdict
				if id, ok, _ := e.LookupPacket(h); ok {
					got = e.Verdict(id)
				}
				if got != before[i] {
					t.Fatalf("the original's verdict for %s changed after deltas on its clone: %+v -> %+v", h, before[i], got)
				}
			}
		})
	}
}

// TestRefusedAndDeclinedDeltas pins the two failures the delta ops tell
// apart: an insert the engine cannot hold is refused (engine.ErrRefused,
// beside the bank's own error) and a delete of a rule it does not hold
// declines; neither changes the engine.
func TestRefusedAndDeclinedDeltas(t *testing.T) {
	e, err := New("mbt", 2, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	rule := func(priority int, port uint16) fivetuple.Rule {
		r := fivetuple.Wildcard(priority, fivetuple.ActionForward)
		r.DstPort = fivetuple.ExactPort(port)
		return r
	}
	for i, port := range []uint16{80, 443} {
		if _, err := e.InsertRule(rule(i, port)); err != nil {
			t.Fatal(err)
		}
	}
	labels, filter := e.Labels().TotalLabels(), e.filter.used
	if _, err := e.InsertRule(rule(2, 22)); !errors.Is(err, engine.ErrRefused) || !errors.Is(err, portreg.ErrBankFull) {
		t.Fatalf("InsertRule past the register bank = %v, want ErrRefused and portreg.ErrBankFull", err)
	}
	if _, err := e.DeleteRule(rule(3, 80)); err == nil || errors.Is(err, engine.ErrRefused) {
		t.Fatalf("DeleteRule of a rule not installed = %v, want a decline", err)
	}
	if e.Labels().TotalLabels() != labels || e.filter.used != filter {
		t.Fatalf("a failed delta changed the engine: %d labels, %d entries, want %d, %d",
			e.Labels().TotalLabels(), e.filter.used, labels, filter)
	}
}

// requirePrefixesCoverEntries asserts the walk's pruning structure can never
// hide a rule: every label prefix of every stored key is in the prefix set.
func requirePrefixesCoverEntries(t *testing.T, e *Engine) {
	t.Helper()
	e.Entries(func(_ int, key label.CombinationKey, v fivetuple.Verdict) {
		for depth := 1; depth < label.NumDimensions; depth++ {
			if !e.prefixes.has(depth, key.Prefix(depth)) {
				t.Fatalf("rule %d: its %d-label prefix is missing from the prefix set", v.Priority, depth)
			}
		}
	})
}

// TestPrefixSetCoversLiveEntries: after an Install, and after a delete whose
// freed label an insert recycles to another field value, the prepared prefix
// set covers every key the Rule Filter stores.
func TestPrefixSetCoversLiveEntries(t *testing.T) {
	mk := func(src, dst string, port uint16, priority int) fivetuple.Rule {
		r := fivetuple.Wildcard(priority, fivetuple.ActionForward)
		r.SrcPrefix, r.DstPrefix = fivetuple.MustParsePrefix(src), fivetuple.MustParsePrefix(dst)
		r.DstPort, r.Protocol, r.ActionArg = fivetuple.ExactPort(port), fivetuple.ExactProtocol(fivetuple.ProtoTCP), uint32(port)
		return r
	}
	old := mk("10.1.0.0/16", "192.168.1.0/24", 80, 0)
	keep := mk("10.9.0.0/16", "192.168.9.0/24", 22, 1)
	fresh := mk("10.2.0.0/16", "192.168.2.0/24", 443, 0)
	e := newEngine(t, "mbt")
	if err := e.Install([]fivetuple.Rule{old, keep}); err != nil {
		t.Fatal(err)
	}
	requirePrefixesCoverEntries(t, e)
	oldLabel, _ := e.Labels().Table(label.DimSrcIPHigh).Lookup(engine.RuleValue(label.DimSrcIPHigh, old))
	if _, err := e.DeleteRule(old); err != nil {
		t.Fatal(err)
	}
	if _, err := e.InsertRule(fresh); err != nil {
		t.Fatal(err)
	}
	if got, _ := e.Labels().Table(label.DimSrcIPHigh).Lookup(engine.RuleValue(label.DimSrcIPHigh, fresh)); got != oldLabel {
		t.Fatalf("the new rule's source segment got label %d, want the recycled label %d", got, oldLabel)
	}
	e.Prepare()
	requirePrefixesCoverEntries(t, e)
}
