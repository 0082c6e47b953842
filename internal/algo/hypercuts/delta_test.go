package hypercuts

import (
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"sdnpc/internal/classbench"
	"sdnpc/internal/fivetuple"
)

// placeBestFirst inserts r into the best-first list live after every rule of
// the same or a better priority, as Insert places it.
func placeBestFirst(live []fivetuple.Rule, r fivetuple.Rule) []fivetuple.Rule {
	at := sort.Search(len(live), func(i int) bool { return live[i].Priority > r.Priority })
	return slices.Insert(live, at, r)
}

// removeFirstInstalled drops the first rule of live with r's matches and
// priority, as Delete does.
func removeFirstInstalled(live []fivetuple.Rule, r fivetuple.Rule) []fivetuple.Rule {
	i := slices.IndexFunc(live, func(q fivetuple.Rule) bool { return q.Priority == r.Priority && q.SameMatch(r) })
	return slices.Delete(live, i, i+1)
}

// oracle returns the multi-action chain of the best-first list live for h:
// every match up to and including the first terminating one.
func oracle(live []fivetuple.Rule, h fivetuple.Header) []fivetuple.Rule {
	var chain []fivetuple.Rule
	for _, r := range live {
		if r.Matches(h) {
			chain = append(chain, r)
			if !r.NonTerminating {
				break
			}
		}
	}
	return chain
}

// tagged generates a rule set whose rules carry ActionArg base+i, so that a
// verdict names exactly one rule even where priorities tie.
func tagged(cfg classbench.Config, base int) *fivetuple.RuleSet {
	rs := classbench.Generate(cfg)
	rules := rs.Rules()
	for i := range rules {
		rules[i].ActionArg = uint32(base + i)
	}
	return fivetuple.NewRuleSet(rs.Name, rules)
}

// verdicts returns the verdicts of rules.
func verdicts(rules []fivetuple.Rule) []fivetuple.Verdict {
	out := make([]fivetuple.Verdict, len(rules))
	for i, r := range rules {
		out[i] = r.Verdict()
	}
	return out
}

// requireVerdicts asserts that c answers the trace as the best-first list
// live does: the first match and the multi-action chain, through Verdict.
// The rules of live carry distinct action arguments, so equal verdicts name
// the same rule.
func requireVerdicts(t *testing.T, who string, c *Classifier, live []fivetuple.Rule, trace []fivetuple.Header) {
	t.Helper()
	for _, h := range trace {
		want := verdicts(oracle(live, h))
		id, ok, _ := c.Classify(h)
		if ok != (len(want) > 0) || (ok && c.Verdict(id) != want[0]) {
			t.Fatalf("%s: Classify(%s) = (%d, %v), oracle chain %v", who, h, id, ok, want)
		}
		ids, _ := c.ClassifyAll(h, nil)
		got := make([]fivetuple.Verdict, len(ids))
		for i, id := range ids {
			got[i] = c.Verdict(id)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s: ClassifyAll(%s) = %v, oracle %v", who, h, got, want)
		}
	}
}

// TestDeltaMatchesFreshBuild churns a built tree through a random
// insert/delete sequence via the delta ops — inserted priorities collide with
// live ones, so ties are placed too — and asserts that every verdict, the
// first match and the multi-action chain, agrees with a tree freshly built
// over the final rule list and with the linear oracle.
func TestDeltaMatchesFreshBuild(t *testing.T) {
	rs := tagged(classbench.Config{Class: classbench.ACL, Rules: 200, Seed: 81, NonTerminatingFraction: 0.3}, 1)
	c, err := Build(rs, DefaultConfig())
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	live := rs.Rules()
	extra := tagged(classbench.Config{Class: classbench.FW, Rules: 120, Seed: 82, NonTerminatingFraction: 0.3}, 1001).Rules()
	rng := rand.New(rand.NewSource(83))
	next := 0
	for op := 0; op < 160; op++ {
		if (rng.Intn(2) == 0 || len(live) == 0) && next < len(extra) {
			r := extra[next]
			r.Priority = rng.Intn(220)
			next++
			if err := c.Insert(r); err != nil {
				t.Fatalf("Insert(%s): %v", r, err)
			}
			live = placeBestFirst(live, r)
		} else if len(live) > 0 {
			r := live[rng.Intn(len(live))]
			if err := c.Delete(r); err != nil {
				t.Fatalf("Delete(%s): %v", r, err)
			}
			live = removeFirstInstalled(live, r)
		}
	}
	if got := c.DeltaStats().Deltas; got != 160 {
		t.Errorf("DeltaStats.Deltas = %d, want 160", got)
	}
	if got := c.NumRules(); got != len(live) {
		t.Errorf("NumRules = %d, want %d", got, len(live))
	}

	fresh, err := BuildRules(slices.Clone(live), DefaultConfig())
	if err != nil {
		t.Fatalf("fresh Build over %d rules: %v", len(live), err)
	}
	trace := classbench.GenerateTrace(fivetuple.NewRuleSet("final", live), classbench.TraceConfig{Packets: 800, Seed: 84, MatchFraction: 0.85})
	requireVerdicts(t, "delta tree", c, live, trace)
	requireVerdicts(t, "fresh build", fresh, live, trace)
}

// TestPositionalShims: on a tree built from a RuleSet, InsertAt and DeleteAt
// take best-first positions, and deleting then reinserting distinct rules —
// the benchmark ladder's sequence — leaves the verdicts of the set.
func TestPositionalShims(t *testing.T) {
	rs := tagged(classbench.Config{Class: classbench.ACL, Rules: 300, Seed: 85}, 1)
	c, err := Build(rs, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for idx := 0; idx < rs.Len(); idx += 7 {
		if err := c.DeleteAt(idx); err != nil {
			t.Fatal(err)
		}
		if err := c.InsertAt(rs.Rule(idx), idx); err != nil {
			t.Fatal(err)
		}
	}
	trace := classbench.GenerateTrace(rs, classbench.TraceConfig{Packets: 600, Seed: 86, MatchFraction: 0.9})
	requireVerdicts(t, "after the shims", c, rs.Rules(), trace)
}

// TestDeltaIndexBounds pins the range checks of the positional shims and the
// refusal of a delete naming no installed rule.
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
	moved := rs.Rule(3)
	moved.Priority = 4
	if err := c.Delete(moved); err == nil {
		t.Error("Delete of a rule at a priority it was not installed with should fail")
	}
	if got := c.DeltaStats().Deltas; got != 0 {
		t.Errorf("DeltaStats.Deltas = %d after refused ops, want 0", got)
	}
}

// TestDeadIDsBounded: delete+insert pairs retire one id each, and the delete
// that would leave more dead ids than live ones plus fivetuple.DeadSlack is
// refused, changing nothing.
func TestDeadIDsBounded(t *testing.T) {
	rs := tagged(classbench.Config{Class: classbench.ACL, Rules: 10, Seed: 7}, 1)
	c, err := Build(rs, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := rs.Rule(0)
	for pair := 0; ; pair++ {
		dead := c.DeltaStats().DeadIDs
		if err := c.Delete(r); err != nil {
			if dead+1 <= c.NumRules()-1+fivetuple.DeadSlack {
				t.Fatalf("pair %d: Delete refused with %d dead ids beside %d live rules: %v", pair, dead, c.NumRules(), err)
			}
			break
		}
		if err := c.Insert(r); err != nil {
			t.Fatal(err)
		}
		if got := c.DeltaStats().DeadIDs; got != pair+1 || got > c.NumRules()+fivetuple.DeadSlack {
			t.Fatalf("pair %d: %d dead ids beside %d live rules", pair, got, c.NumRules())
		}
	}
	trace := classbench.GenerateTrace(rs, classbench.TraceConfig{Packets: 200, Seed: 8, MatchFraction: 0.9})
	requireVerdicts(t, "after the refusal", c, rs.Rules(), trace)
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
		if err := cl.Delete(rs.Rule(i)); err != nil {
			t.Fatalf("Delete on clone: %v", err)
		}
	}
	if err := cl.Insert(rs.Rule(0)); err != nil {
		t.Fatal(err)
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
		if err := c.Insert(fivetuple.Wildcard(0, fivetuple.ActionDrop)); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Degradation(); got <= 0.4 {
		t.Errorf("degradation after doubling a full leaf = %v, want > 0.4", got)
	}
	if got := c.OverflowPtrs(); got != cfg.Binth {
		t.Errorf("OverflowPtrs = %d, want %d", got, cfg.Binth)
	}
	if got := c.MaxLeafOccupancy(); got < 2*cfg.Binth {
		t.Errorf("MaxLeafOccupancy = %d, want >= %d", got, 2*cfg.Binth)
	}
	// Deleting back down clears the overflow.
	for i := 0; i < cfg.Binth; i++ {
		if err := c.Delete(fivetuple.Wildcard(0, fivetuple.ActionDrop)); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.OverflowPtrs(); got != 0 {
		t.Errorf("OverflowPtrs after shrinking back = %d, want 0", got)
	}
}

// treeState is a deep copy of what a delta may write: the leaf chunks and
// their identities and the record store.
type treeState struct {
	chunks [][]uint32
	first  []*uint32
	rules  []fivetuple.PackedRule
}

func stateOf(c *Classifier) treeState {
	var s treeState
	for k := range c.leaves.Chunks() {
		lc := c.leaves.Chunk(k)
		s.chunks = append(s.chunks, slices.Clone(lc))
		s.first = append(s.first, &lc[0])
	}
	for id := range c.IDs() {
		s.rules = append(s.rules, *c.At(id))
	}
	return s
}

func requireState(t *testing.T, who string, c *Classifier, want treeState) {
	t.Helper()
	got := stateOf(c)
	if !slices.EqualFunc(got.chunks, want.chunks, slices.Equal) || !slices.Equal(got.first, want.first) {
		t.Fatalf("%s: leaf chunks changed", who)
	}
	if !slices.Equal(got.rules, want.rules) {
		t.Fatalf("%s: rule store changed", who)
	}
}

// TestCloneDeltasLeaveSourceUntouched: deltas on a clone never write the
// leaf chunks or the rule store it shares with its source —
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
		victims := rng.Perm(rs.Len())
		for i, r := range extra {
			r.Priority = rng.Intn(rs.Len())
			if err := c.Insert(r); err != nil {
				t.Fatal(err)
			}
			if i%2 == 0 {
				if err := c.Delete(rs.Rule(victims[i])); err != nil {
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

// TestRefusesUnencodableRules: a rule needing a dimension the tree cannot
// encode is refused by BuildRules and Insert with an error naming the
// dimension, and its Delete reports it not installed, changing nothing.
func TestRefusesUnencodableRules(t *testing.T) {
	rs := tagged(classbench.Config{Class: classbench.ACL, Rules: 100, Seed: 87, NonTerminatingFraction: 0.2}, 1)
	vlan := rs.Rule(3)
	vlan.VLAN = fivetuple.ExactVLAN(7)
	v6 := fivetuple.Wildcard(5, fivetuple.ActionDrop)
	v6.Src6 = fivetuple.MustParsePrefix6("2001:db8::/32")
	masked := rs.Rule(4)
	masked.Protocol = fivetuple.ProtocolMatch{Value: 6, Mask: 0x0F}
	cases := []struct {
		r   fivetuple.Rule
		dim string
	}{{vlan, "vlan"}, {v6, "ipv6"}, {masked, "masked-proto"}}
	trace := classbench.GenerateTrace(rs, classbench.TraceConfig{Packets: 300, Seed: 88, MatchFraction: 0.9})
	for _, tc := range cases {
		rules := rs.Rules()
		rules[tc.r.Priority] = tc.r
		if _, err := BuildRules(rules, DefaultConfig()); err == nil || !strings.Contains(err.Error(), tc.dim) {
			t.Errorf("BuildRules with a %s rule: error %v, want one naming %s", tc.dim, err, tc.dim)
		}
		c, err := Build(rs, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		before := stateOf(c)
		if err := c.Insert(tc.r); err == nil || !strings.Contains(err.Error(), tc.dim) {
			t.Errorf("Insert of a %s rule: error %v, want one naming %s", tc.dim, err, tc.dim)
		}
		if err := c.Delete(tc.r); err == nil || !strings.Contains(err.Error(), "not installed") {
			t.Errorf("Delete of a %s rule: error %v, want not installed", tc.dim, err)
		}
		requireState(t, "after the refused "+tc.dim+" rule", c, before)
		if ds := c.DeltaStats(); ds != (fivetuple.DeltaStats{}) || c.OverflowPtrs() != 0 || c.NumRules() != rs.Len() {
			t.Errorf("after the refused %s rule: %+v over %d rules", tc.dim, ds, c.NumRules())
		}
		requireVerdicts(t, "after the refused "+tc.dim+" rule", c, rs.Rules(), trace)
	}
}
