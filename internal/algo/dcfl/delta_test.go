package dcfl

import (
	"math/rand"
	"reflect"
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

// requireVerdicts asserts that c answers the trace as the best-first list
// live does: the first match and the multi-action chain — every match up to
// and including the first terminating one — through Verdict. The rules of
// live carry distinct action arguments, so equal verdicts name the same
// rule.
func requireVerdicts(t *testing.T, who string, c *Classifier, live []fivetuple.Rule, trace []fivetuple.Header) {
	t.Helper()
	for _, h := range trace {
		var want []fivetuple.Verdict
		for _, r := range live {
			if r.Matches(h) {
				if want = append(want, r.Verdict()); !r.NonTerminating {
					break
				}
			}
		}
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

// TestDeltaMatchesFreshBuild churns built tables through a random
// insert/delete sequence via the delta ops — inserted priorities collide with
// live ones, so ties are placed too — and asserts that every verdict, the
// first match and the multi-action chain, agrees with tables freshly built
// over the final rule list and with the linear oracle.
func TestDeltaMatchesFreshBuild(t *testing.T) {
	rs := tagged(classbench.Config{Class: classbench.ACL, Rules: 200, Seed: 91, NonTerminatingFraction: 0.3}, 1)
	c, err := Build(rs)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	live := rs.Rules()
	extra := tagged(classbench.Config{Class: classbench.IPC, Rules: 120, Seed: 92, NonTerminatingFraction: 0.3}, 1001).Rules()
	rng := rand.New(rand.NewSource(93))
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

	fresh, err := BuildRules(slices.Clone(live))
	if err != nil {
		t.Fatalf("fresh Build over %d rules: %v", len(live), err)
	}
	trace := classbench.GenerateTrace(fivetuple.NewRuleSet("final", live), classbench.TraceConfig{Packets: 800, Seed: 94, MatchFraction: 0.85})
	requireVerdicts(t, "delta tables", c, live, trace)
	requireVerdicts(t, "fresh build", fresh, live, trace)
}

// TestPositionalShims: on tables built from a RuleSet, InsertAt and DeleteAt
// take best-first positions, and deleting then reinserting distinct rules —
// the benchmark ladder's sequence — leaves the verdicts of the set.
func TestPositionalShims(t *testing.T) {
	rs := tagged(classbench.Config{Class: classbench.ACL, Rules: 300, Seed: 95}, 1)
	c, err := Build(rs)
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
	trace := classbench.GenerateTrace(rs, classbench.TraceConfig{Packets: 600, Seed: 96, MatchFraction: 0.9})
	requireVerdicts(t, "after the shims", c, rs.Rules(), trace)
}

// TestDeltaIndexBounds pins the range checks of the positional shims and the
// refusal of a delete naming no installed rule.
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
	c, err := Build(rs)
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

// tableState is a deep copy of everything a delta may write — the field
// values, hash slots, sets and record store — plus the verdicts and chains
// the tables give on a trace.
type tableState struct {
	fields   [numFields][][2]uint32
	slots    [4][]slot
	sets     [4][][]uint32
	rules    []fivetuple.PackedRule
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
	for id := range c.IDs() {
		s.rules = append(s.rules, *c.At(id))
	}
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
		victims := rng.Perm(rs.Len())
		for i, r := range rules {
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
	// Delete the first 20 rules.
	deleted := append([]fivetuple.Rule(nil), rs.Rules()[:20]...)
	for _, r := range deleted {
		if err := c.Delete(r); err != nil {
			t.Fatalf("Delete: %v", err)
		}
	}
	mid := c.Degradation()
	if mid <= 0 {
		t.Fatalf("degradation after 20 deletes = %v, want > 0", mid)
	}
	for _, r := range deleted {
		if err := c.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Degradation(); got >= mid {
		t.Errorf("degradation after re-inserting = %v, want below the post-delete %v", got, mid)
	}
	if got := c.StaleCombos(); got != 0 {
		t.Errorf("StaleCombos after full re-insert = %d, want 0", got)
	}
}

// TestRefusesUnencodableRules: a rule needing a dimension the tables cannot
// encode is refused by BuildRules and Insert with an error naming the
// dimension, and its Delete reports it not installed, changing nothing.
func TestRefusesUnencodableRules(t *testing.T) {
	rs := tagged(classbench.Config{Class: classbench.ACL, Rules: 100, Seed: 97, NonTerminatingFraction: 0.2}, 1)
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
	trace := classbench.GenerateTrace(rs, classbench.TraceConfig{Packets: 300, Seed: 98, MatchFraction: 0.9})
	for _, tc := range cases {
		rules := rs.Rules()
		rules[tc.r.Priority] = tc.r
		if _, err := BuildRules(rules); err == nil || !strings.Contains(err.Error(), tc.dim) {
			t.Errorf("BuildRules with a %s rule: error %v, want one naming %s", tc.dim, err, tc.dim)
		}
		c, err := Build(rs)
		if err != nil {
			t.Fatal(err)
		}
		before := stateOf(c, trace)
		if err := c.Insert(tc.r); err == nil || !strings.Contains(err.Error(), tc.dim) {
			t.Errorf("Insert of a %s rule: error %v, want one naming %s", tc.dim, err, tc.dim)
		}
		if err := c.Delete(tc.r); err == nil || !strings.Contains(err.Error(), "not installed") {
			t.Errorf("Delete of a %s rule: error %v, want not installed", tc.dim, err)
		}
		if !reflect.DeepEqual(stateOf(c, trace), before) {
			t.Errorf("the refused %s rule changed the tables", tc.dim)
		}
		if ds := c.DeltaStats(); ds != (fivetuple.DeltaStats{}) || c.StaleCombos() != 0 || c.NumRules() != rs.Len() {
			t.Errorf("after the refused %s rule: %+v over %d rules", tc.dim, ds, c.NumRules())
		}
		requireVerdicts(t, "after the refused "+tc.dim+" rule", c, rs.Rules(), trace)
	}
}
