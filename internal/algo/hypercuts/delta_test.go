package hypercuts

import (
	"math/rand"
	"slices"
	"testing"

	"sdnpc/internal/classbench"
	"sdnpc/internal/fivetuple"
)

// TestDeltaMatchesFreshBuild churns a built tree through a random
// insert/delete sequence via the delta ops and asserts that every verdict —
// the first match and the multi-action chain — agrees with a tree freshly
// built over the final rule list and with the linear oracle.
func TestDeltaMatchesFreshBuild(t *testing.T) {
	rs := classbench.Generate(classbench.Config{Class: classbench.ACL, Rules: 200, Seed: 81, NonTerminatingFraction: 0.3})
	c, err := Build(rs, DefaultConfig())
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	live := append([]fivetuple.Rule(nil), rs.Rules()...)
	extra := classbench.Generate(classbench.Config{Class: classbench.FW, Rules: 120, Seed: 82, NonTerminatingFraction: 0.3}).Rules()
	rng := rand.New(rand.NewSource(83))
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
	fresh, err := Build(finalSet, DefaultConfig())
	if err != nil {
		t.Fatalf("fresh Build over %d rules: %v", finalSet.Len(), err)
	}
	trace := classbench.GenerateTrace(finalSet, classbench.TraceConfig{Packets: 800, Seed: 84, MatchFraction: 0.85})
	for _, h := range trace {
		wantIdx, wantOK := finalSet.Classify(h)
		gotIdx, gotOK, _ := c.Classify(h)
		if gotOK != wantOK || (wantOK && gotIdx != wantIdx) {
			t.Fatalf("delta tree Classify(%s) = (%d,%v), oracle (%d,%v)", h, gotIdx, gotOK, wantIdx, wantOK)
		}
		freshIdx, freshOK, _ := fresh.Classify(h)
		if gotOK != freshOK || (gotOK && gotIdx != freshIdx) {
			t.Fatalf("delta tree Classify(%s) = (%d,%v), fresh build (%d,%v)", h, gotIdx, gotOK, freshIdx, freshOK)
		}
		gotAll, _ := c.ClassifyAll(h, nil)
		freshAll, _ := fresh.ClassifyAll(h, nil)
		if wantAll := finalSet.ClassifyAll(h); !slices.Equal(gotAll, wantAll) || !slices.Equal(freshAll, wantAll) {
			t.Fatalf("ClassifyAll(%s): delta tree %v, fresh build %v, oracle %v", h, gotAll, freshAll, wantAll)
		}
	}
}

// TestDeltaIndexBounds pins the range checks of the delta ops.
func TestDeltaIndexBounds(t *testing.T) {
	rs := classbench.Generate(classbench.Config{Class: classbench.ACL, Rules: 20, Seed: 5})
	c, err := Build(rs, DefaultConfig())
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

// TestCloneIsolation asserts that delta ops on a clone are never observable
// through the original: verdicts, delta counters and memory accounting of
// the original stay fixed.
func TestCloneIsolation(t *testing.T) {
	rs := classbench.Generate(classbench.Config{Class: classbench.IPC, Rules: 150, Seed: 21})
	orig, err := Build(rs, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	trace := classbench.GenerateTrace(rs, classbench.TraceConfig{Packets: 200, Seed: 22, MatchFraction: 0.9})
	type verdict struct {
		idx int
		ok  bool
	}
	before := make([]verdict, len(trace))
	for i, h := range trace {
		idx, ok, _ := orig.Classify(h)
		before[i] = verdict{idx, ok}
	}
	memBefore := orig.MemoryBits()

	cl := orig.Clone()
	for i := 0; i < 40; i++ {
		if err := cl.DeleteAt(0); err != nil {
			t.Fatalf("DeleteAt on clone: %v", err)
		}
	}
	if err := cl.InsertAt(rs.Rule(0), 0); err != nil {
		t.Fatalf("InsertAt on clone: %v", err)
	}
	if got := orig.DeltaStats().Deltas; got != 0 {
		t.Errorf("original DeltaStats.Deltas = %d after clone mutation, want 0", got)
	}
	if got := orig.MemoryBits(); got != memBefore {
		t.Errorf("original MemoryBits changed %d -> %d after clone mutation", memBefore, got)
	}
	for i, h := range trace {
		idx, ok, _ := orig.Classify(h)
		if idx != before[i].idx || ok != before[i].ok {
			t.Fatalf("original verdict for %s changed after clone mutation: (%d,%v) -> (%d,%v)",
				h, before[i].idx, before[i].ok, idx, ok)
		}
	}
}

// TestDegradationTracksLeafOverflow drives one leaf past binth and asserts
// the degradation signal rises from the build-time zero point.
func TestDegradationTracksLeafOverflow(t *testing.T) {
	// Identical full-wildcard rules all land in every leaf; a fresh build
	// over binth of them is a single full leaf with zero degradation.
	cfg := DefaultConfig()
	var rules []fivetuple.Rule
	for i := 0; i < cfg.Binth; i++ {
		rules = append(rules, fivetuple.Wildcard(i, fivetuple.ActionForward))
	}
	c, err := Build(fivetuple.NewRuleSet("wild", rules), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Degradation(); got != 0 {
		t.Fatalf("fresh build degradation = %v, want 0", got)
	}
	for i := 0; i < cfg.Binth; i++ {
		if err := c.InsertAt(fivetuple.Wildcard(0, fivetuple.ActionDrop), 0); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Degradation(); got <= 0.4 {
		t.Errorf("degradation after doubling a full leaf = %v, want > 0.4", got)
	}
	if got := c.DeltaStats().OverflowPtrs; got != cfg.Binth {
		t.Errorf("OverflowPtrs = %d, want %d", got, cfg.Binth)
	}
	if got := c.MaxLeafOccupancy(); got < 2*cfg.Binth {
		t.Errorf("MaxLeafOccupancy = %d, want >= %d", got, 2*cfg.Binth)
	}
	// Deleting back down clears the overflow.
	for i := 0; i < cfg.Binth; i++ {
		if err := c.DeleteAt(0); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.DeltaStats().OverflowPtrs; got != 0 {
		t.Errorf("OverflowPtrs after shrinking back = %d, want 0", got)
	}
}

// treeState is a deep copy of what a delta may write: the leaf chunks and
// their identities, the rule store and the id → position map.
type treeState struct {
	chunks [][]uint32
	first  []*uint32
	rules  []fivetuple.Rule
	pos    []uint32
}

func stateOf(c *Classifier) treeState {
	var s treeState
	for k := range c.leaves.Chunks() {
		lc := c.leaves.Chunk(k)
		s.chunks = append(s.chunks, slices.Clone(lc))
		s.first = append(s.first, &lc[0])
	}
	for id := range c.rules.Len() {
		s.rules = append(s.rules, *c.rules.At(id))
	}
	s.pos = slices.Clone(c.pos)
	return s
}

func requireState(t *testing.T, who string, c *Classifier, want treeState) {
	t.Helper()
	got := stateOf(c)
	if !slices.EqualFunc(got.chunks, want.chunks, slices.Equal) || !slices.Equal(got.first, want.first) {
		t.Fatalf("%s: leaf chunks changed", who)
	}
	if !slices.Equal(got.rules, want.rules) || !slices.Equal(got.pos, want.pos) {
		t.Fatalf("%s: rule store or id map changed", who)
	}
}

// TestCloneDeltasLeaveSourceUntouched: deltas on a clone never write the
// leaf chunks, the rule store or the id map it shares with its source —
// byte for byte and chunk for chunk — and deltas on the source after the
// clone never write the clone's, whichever side writes first.
func TestCloneDeltasLeaveSourceUntouched(t *testing.T) {
	rs := classbench.Generate(classbench.StandardConfig(classbench.ACL, classbench.Size1K))
	src, err := Build(rs, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	extra := classbench.Generate(classbench.Config{Class: classbench.FW, Rules: 40, Seed: 9}).Rules()
	churn := func(c *Classifier, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		for i, r := range extra {
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
	before := stateOf(src)
	cl := src.Clone()
	churn(cl, 1)
	requireState(t, "source after the clone's deltas", src, before)

	cl = src.Clone()
	cloned := stateOf(cl)
	churn(src, 2)
	requireState(t, "clone after the source's deltas", cl, cloned)
}
