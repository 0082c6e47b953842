package engine_test

import (
	"math/rand"
	"testing"

	"sdnpc/internal/engine"
	"sdnpc/internal/fivetuple"
)

// TestIncrementalFlagMatchesCapability pins the registry honesty of the
// delta-update capability: a definition may declare Incremental if and only
// if its instances actually implement IncrementalPacketEngine.
func TestIncrementalFlagMatchesCapability(t *testing.T) {
	for _, name := range engine.PacketEngineNames() {
		def, ok := engine.Get(name)
		if !ok {
			t.Fatalf("packet engine %q vanished from the registry", name)
		}
		eng, err := engine.NewPacket(name, engine.Spec{})
		if err != nil {
			t.Fatalf("building %q: %v", name, err)
		}
		_, incremental := eng.(engine.IncrementalPacketEngine)
		if incremental != def.Incremental {
			t.Errorf("engine %q: Incremental flag = %v but interface implemented = %v",
				name, def.Incremental, incremental)
		}
	}
	names := engine.IncrementalPacketEngineNames()
	if len(names) < 2 {
		t.Fatalf("IncrementalPacketEngineNames() = %v, want at least dcfl and hypercuts", names)
	}
}

// TestIncrementalDeltaMatchesInstall drives every incremental packet engine
// through a random splice sequence and asserts verdict-for-verdict agreement
// with a freshly installed twin and the linear oracle after every op.
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
			for op := 0; op < 60; op++ {
				if (rng.Intn(2) == 0 || len(live) == 0) && len(pool) > 0 {
					idx := rng.Intn(len(live) + 1)
					r := pool[0]
					pool = pool[1:]
					if err := inc.InsertRule(r, idx); err != nil {
						t.Fatalf("op %d InsertRule(%d): %v", op, idx, err)
					}
					live = append(live, fivetuple.Rule{})
					copy(live[idx+1:], live[idx:])
					live[idx] = r
				} else {
					idx := rng.Intn(len(live))
					if err := inc.DeleteRule(live[idx], idx); err != nil {
						t.Fatalf("op %d DeleteRule(%d): %v", op, idx, err)
					}
					live = append(live[:idx], live[idx+1:]...)
				}
				headers := probeHeaders(rng, live, 25)
				fresh, err := engine.NewPacket(name, engine.Spec{})
				if err != nil {
					t.Fatal(err)
				}
				if err := fresh.Install(live); err != nil {
					t.Fatalf("op %d fresh Install over %d rules: %v", op, len(live), err)
				}
				oracle := fivetuple.NewRuleSet("oracle", live)
				for _, h := range headers {
					wantIdx, wantOK := oracle.Classify(h)
					gotIdx, gotOK, _ := inc.LookupPacket(h)
					if gotOK != wantOK || (wantOK && gotIdx != wantIdx) {
						t.Fatalf("op %d: delta path LookupPacket(%s) = (%d,%v), oracle (%d,%v)",
							op, h, gotIdx, gotOK, wantIdx, wantOK)
					}
					freshIdx, freshOK, _ := fresh.LookupPacket(h)
					if gotOK != freshOK || (gotOK && gotIdx != freshIdx) {
						t.Fatalf("op %d: delta path LookupPacket(%s) = (%d,%v), fresh Install (%d,%v)",
							op, h, gotIdx, gotOK, freshIdx, freshOK)
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
			if cost := inc.UpdateCost(); cost.Deltas != 0 || cost.Degradation != 0 {
				t.Errorf("UpdateCost after re-Install = %+v, want zero debt", cost)
			}
		})
	}
}

// TestIncrementalCloneIsolation asserts the copy-on-write contract: a delta
// applied to a cloned handle is never observable through the original, in
// either verdicts or delta accounting.
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
				idx int
				ok  bool
			}
			before := make([]verdict, len(headers))
			for i, h := range headers {
				idx, ok, _ := eng.LookupPacket(h)
				before[i] = verdict{idx, ok}
			}

			cl := eng.Clone().(engine.IncrementalPacketEngine)
			for i := 0; i < 10; i++ {
				if err := cl.DeleteRule(rules[0], 0); err != nil {
					t.Fatalf("DeleteRule on clone: %v", err)
				}
				rules = rules[1:]
			}
			orig := eng.(engine.IncrementalPacketEngine)
			if cost := orig.UpdateCost(); cost.Deltas != 0 {
				t.Errorf("original UpdateCost.Deltas = %d after clone deltas, want 0", cost.Deltas)
			}
			if cost := cl.UpdateCost(); cost.Deltas != 10 {
				t.Errorf("clone UpdateCost.Deltas = %d, want 10", cost.Deltas)
			}
			for i, h := range headers {
				idx, ok, _ := eng.LookupPacket(h)
				if idx != before[i].idx || ok != before[i].ok {
					t.Fatalf("original verdict for %s changed after clone deltas: (%d,%v) -> (%d,%v)",
						h, before[i].idx, before[i].ok, idx, ok)
				}
			}
		})
	}
}

// TestIncrementalDeleteRejectsDivergentMatch pins the divergent-view check:
// DeleteRule names the rule the caller believes lives at idx, and an index
// holding a rule of the same priority but different matches — every index, on
// a wire tenant whose rules all carry priority 0 — must be refused with the
// structure left answering as before the call.
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
			if err := inc.Install(rules); err != nil {
				t.Fatal(err)
			}
			before := make([]int, len(headers))
			for i, h := range headers {
				before[i], _, _ = inc.LookupPacket(h)
			}
			wrong := 1
			for rules[wrong].SameMatch(rules[0]) {
				wrong++
			}
			if err := inc.DeleteRule(rules[0], wrong); err == nil {
				t.Fatalf("DeleteRule(%s, %d) accepted an index holding %s", rules[0], wrong, rules[wrong])
			}
			if cost := inc.UpdateCost(); cost.Deltas != 0 {
				t.Errorf("UpdateCost.Deltas = %d after a refused delete, want 0", cost.Deltas)
			}
			for i, h := range headers {
				if idx, _, _ := inc.LookupPacket(h); idx != before[i] {
					t.Fatalf("verdict for %s changed across a refused delete: rule %d -> %d", h, before[i], idx)
				}
			}
			if err := inc.DeleteRule(rules[wrong], wrong); err != nil {
				t.Fatalf("DeleteRule with the matching view: %v", err)
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
			if err := inc.InsertRule(r, 0); err == nil {
				t.Error("InsertRule on an empty engine should fail")
			}
			if err := inc.DeleteRule(r, 0); err == nil {
				t.Error("DeleteRule on an empty engine should fail")
			}
			if err := inc.Install([]fivetuple.Rule{r}); err != nil {
				t.Fatal(err)
			}
			if err := inc.DeleteRule(r, 5); err == nil {
				t.Error("DeleteRule with a divergent index should fail")
			}
		})
	}
}
