package dcfl

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"sdnpc/internal/classbench"
	"sdnpc/internal/fivetuple"
)

// TestDeltaMatchesFreshBuild churns built tables through a random
// insert/delete sequence via the delta ops and asserts that every verdict —
// the first match and the multi-action chain — agrees with tables freshly
// built over the final rule list and with the linear oracle.
func TestDeltaMatchesFreshBuild(t *testing.T) {
	rs := classbench.Generate(classbench.Config{Class: classbench.ACL, Rules: 200, Seed: 91, NonTerminatingFraction: 0.3})
	c, err := Build(rs)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	live := append([]fivetuple.Rule(nil), rs.Rules()...)
	extra := classbench.Generate(classbench.Config{Class: classbench.IPC, Rules: 120, Seed: 92, NonTerminatingFraction: 0.3}).Rules()
	rng := rand.New(rand.NewSource(93))
	next := 0
	for op := 0; op < 160; op++ {
		if (rng.Intn(2) == 0 || len(live) == 0) && next < len(extra) {
			idx := rng.Intn(len(live) + 1)
			r := extra[next]
			next++
			if err := c.InsertAt(r, idx); err != nil {
				t.Fatalf("InsertAt(%d): %v", idx, err)
			}
			live = append(live, fivetuple.Rule{})
			copy(live[idx+1:], live[idx:])
			live[idx] = r
		} else if len(live) > 0 {
			idx := rng.Intn(len(live))
			if err := c.DeleteAt(idx); err != nil {
				t.Fatalf("DeleteAt(%d): %v", idx, err)
			}
			live = append(live[:idx], live[idx+1:]...)
		}
	}
	if got := c.DeltaStats().Deltas; got != 160 {
		t.Errorf("DeltaStats.Deltas = %d, want 160", got)
	}

	finalSet := fivetuple.NewRuleSet("final", live)
	fresh, err := Build(finalSet)
	if err != nil {
		t.Fatalf("fresh Build over %d rules: %v", finalSet.Len(), err)
	}
	trace := classbench.GenerateTrace(finalSet, classbench.TraceConfig{Packets: 800, Seed: 94, MatchFraction: 0.85})
	for _, h := range trace {
		wantIdx, wantOK := finalSet.Classify(h)
		gotIdx, gotOK, _ := c.Classify(h)
		if gotOK != wantOK || (wantOK && gotIdx != wantIdx) {
			t.Fatalf("delta tables Classify(%s) = (%d,%v), oracle (%d,%v)", h, gotIdx, gotOK, wantIdx, wantOK)
		}
		freshIdx, freshOK, _ := fresh.Classify(h)
		if gotOK != freshOK || (gotOK && gotIdx != freshIdx) {
			t.Fatalf("delta tables Classify(%s) = (%d,%v), fresh build (%d,%v)", h, gotIdx, gotOK, freshIdx, freshOK)
		}
		gotAll, _ := c.ClassifyAll(h, nil)
		freshAll, _ := fresh.ClassifyAll(h, nil)
		if wantAll := finalSet.ClassifyAll(h); !slices.Equal(gotAll, wantAll) || !slices.Equal(freshAll, wantAll) {
			t.Fatalf("ClassifyAll(%s): delta tables %v, fresh build %v, oracle %v", h, gotAll, freshAll, wantAll)
		}
	}
}

// TestDeltaIndexBounds pins the range checks of the delta ops.
func TestDeltaIndexBounds(t *testing.T) {
	rs := classbench.Generate(classbench.Config{Class: classbench.ACL, Rules: 20, Seed: 5})
	c, err := Build(rs)
	if err != nil {
		t.Fatal(err)
	}
	n := len(rs.Rules())
	if err := c.InsertAt(rs.Rule(0), n+1); err == nil {
		t.Error("InsertAt past the end should fail")
	}
	if err := c.InsertAt(rs.Rule(0), -1); err == nil {
		t.Error("InsertAt(-1) should fail")
	}
	if err := c.DeleteAt(n); err == nil {
		t.Error("DeleteAt(len) should fail")
	}
	if err := c.DeleteAt(-1); err == nil {
		t.Error("DeleteAt(-1) should fail")
	}
}

// tableState is a deep copy of everything a delta may write — the field
// values, hash slots, sets, rule store and id → position map — plus the
// verdicts and chains the tables give on a trace.
type tableState struct {
	fields   [numFields][][2]uint32
	slots    [4][]slot
	sets     [4][][]uint32
	rules    []fivetuple.Rule
	pos      []uint32
	verdicts [][]int
}

func stateOf(c *Classifier, trace []fivetuple.Header) tableState {
	var s tableState
	for f := range c.fields {
		for l := range c.fields[f].Len() {
			s.fields[f] = append(s.fields[f], *c.fields[f].At(l))
		}
	}
	for i, t := range c.aggTables() {
		for j := range t.slots.Len() {
			s.slots[i] = append(s.slots[i], *t.slots.At(j))
		}
		for id := range t.sets.Len() {
			s.sets[i] = append(s.sets[i], slices.Clone(t.sets.List(id)))
		}
	}
	for id := range c.rules.Len() {
		s.rules = append(s.rules, *c.rules.At(id))
	}
	s.pos = slices.Clone(c.pos)
	for _, h := range trace {
		idx, ok, _ := c.Classify(h)
		all, _ := c.ClassifyAll(h, nil)
		if !ok {
			idx = -1
		}
		s.verdicts = append(s.verdicts, append([]int{idx}, all...))
	}
	return s
}

// TestCloneIsolation: after a Clone the two sides share every chunk, and
// deltas on either side are never observable through the other — neither
// the written tables nor a verdict — whichever side writes first, and when
// both write. The two sides insert different rules, so their appends to the
// value arrays, slots and sets land on the same indices with different
// contents.
func TestCloneIsolation(t *testing.T) {
	rs := classbench.Generate(classbench.Config{Class: classbench.FW, Rules: 150, Seed: 23, NonTerminatingFraction: 0.3})
	extra := [2][]fivetuple.Rule{
		classbench.Generate(classbench.Config{Class: classbench.ACL, Rules: 40, Seed: 25}).Rules(),
		classbench.Generate(classbench.Config{Class: classbench.IPC, Rules: 40, Seed: 26}).Rules(),
	}
	all := fivetuple.NewRuleSet("all", slices.Concat(rs.Rules(), extra[0], extra[1]))
	trace := classbench.GenerateTrace(all, classbench.TraceConfig{Packets: 600, Seed: 24, MatchFraction: 0.9})
	churn := func(c *Classifier, rules []fivetuple.Rule, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		for i, r := range rules {
			if err := c.InsertAt(r, rng.Intn(c.NumRules()+1)); err != nil {
				t.Fatal(err)
			}
			if i%2 == 0 {
				if err := c.DeleteAt(rng.Intn(c.NumRules())); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for _, cloneFirst := range []bool{true, false} {
		orig, err := Build(rs)
		if err != nil {
			t.Fatal(err)
		}
		cl := orig.Clone()
		first, second := cl, orig
		if !cloneFirst {
			first, second = orig, cl
		}
		want := stateOf(second, trace)
		churn(first, extra[0], 1)
		if !reflect.DeepEqual(stateOf(second, trace), want) {
			t.Fatalf("clone first %v: the first writer's deltas reached the other side", cloneFirst)
		}
		want = stateOf(first, trace)
		churn(second, extra[1], 2)
		if !reflect.DeepEqual(stateOf(first, trace), want) {
			t.Fatalf("clone first %v: the second writer's deltas reached the first", cloneFirst)
		}
		if second.DeltaStats().Deltas != 60 {
			t.Fatalf("clone first %v: DeltaStats.Deltas = %d, want 60", cloneFirst, second.DeltaStats().Deltas)
		}
	}
}

// TestDegradationTracksStaleCombos deletes rules and asserts the stale-entry
// fraction rises, then falls again when the same rules are re-inserted (the
// delete-then-reinsert churn pattern revives emptied combination entries).
func TestDegradationTracksStaleCombos(t *testing.T) {
	rs := classbench.Generate(classbench.Config{Class: classbench.ACL, Rules: 60, Seed: 31})
	c, err := Build(rs)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Degradation(); got != 0 {
		t.Fatalf("fresh build degradation = %v, want 0", got)
	}
	// Delete the first 20 rules (always at index 0 so the renumbering path
	// is exercised too).
	deleted := append([]fivetuple.Rule(nil), rs.Rules()[:20]...)
	for i := 0; i < 20; i++ {
		if err := c.DeleteAt(0); err != nil {
			t.Fatalf("DeleteAt: %v", err)
		}
	}
	mid := c.Degradation()
	if mid <= 0 {
		t.Fatalf("degradation after 20 deletes = %v, want > 0", mid)
	}
	for i := len(deleted) - 1; i >= 0; i-- {
		if err := c.InsertAt(deleted[i], 0); err != nil {
			t.Fatalf("InsertAt: %v", err)
		}
	}
	if got := c.Degradation(); got >= mid {
		t.Errorf("degradation after re-inserting = %v, want below the post-delete %v", got, mid)
	}
	if got := c.DeltaStats().StaleCombos; got != 0 {
		t.Errorf("StaleCombos after full re-insert = %d, want 0", got)
	}
}
