package core

import (
	"errors"
	"fmt"
	"testing"

	"sdnpc/internal/algo/portreg"
	"sdnpc/internal/classbench"
	"sdnpc/internal/engine"
	"sdnpc/internal/fieldtier"
	"sdnpc/internal/fivetuple"
	"sdnpc/internal/label"
)

// The field engine's label bank is shared by every clone of the engine and
// written in place by the transaction in flight, so a transaction that is
// abandoned after applying ops must leave it describing the published rule
// table again. These tests abandon transactions every way one can be
// abandoned and then make the classifier prove the bank still fits: by its
// contents, and by churning rules through it against the linear reference.

// fieldEngine returns the published snapshot's field engine.
func fieldEngine(t *testing.T, c *Classifier) *fieldtier.Engine {
	t.Helper()
	f, ok := c.view().engine.(*fieldtier.Engine)
	if !ok {
		t.Fatalf("the %s engine serves, not the field engine", c.ActiveEngineName())
	}
	return f
}

// storedRule is one Rule Filter entry: a combination key and a verdict.
type storedRule struct {
	key label.CombinationKey
	v   fivetuple.Verdict
}

// requireBankMatchesPublished asserts that the writer-side label bank is
// exactly what the published rule table implies: the labels the bank gives
// every installed rule's field values pack into a combination key the Rule
// Filter stores with that rule's verdict, and into no key it does not, the
// reference counters add up to one use per rule and dimension, nothing else
// is labelled, and the footprint Report publishes is the bank's.
func requireBankMatchesPublished(t *testing.T, c *Classifier) {
	t.Helper()
	s, f := c.view(), fieldEngine(t, c)
	bank := f.Labels()
	if got, want := bank.StorageBits(), c.Report().Memory.LabelTableBits; got != want {
		t.Fatalf("bookkeeping holds %d label bits, published %d", got, want)
	}
	stored := map[storedRule]int{}
	f.Entries(func(_ int, key label.CombinationKey, v fivetuple.Verdict) { stored[storedRule{key, v}]++ })
	for i := range s.table.len() {
		r := s.table.at(i)
		var labels [label.NumDimensions + 1]label.Label
		for _, d := range label.Dimensions() {
			v := engine.RuleValue(d, *r)
			lbl, ok := bank.Table(d).Lookup(v)
			if !ok {
				t.Fatalf("%s: value %s of rule %d has no label in the bank", d, v, r.Priority)
			}
			labels[d] = lbl
		}
		e := storedRule{label.PackKeyDims(&labels), r.Verdict()}
		if stored[e] == 0 {
			t.Fatalf("rule %d: the bank labels its values %v, a key the Rule Filter does not store with its verdict", r.Priority, e.key.Unpack())
		}
		stored[e]--
	}
	for e, n := range stored {
		if n != 0 {
			t.Fatalf("the Rule Filter stores %d entries of priority %d under key %v, which no installed rule's labels make", n, e.v.Priority, e.key.Unpack())
		}
	}
	for _, d := range label.Dimensions() {
		values := map[engine.Value]bool{}
		for i := range s.table.len() {
			values[engine.RuleValue(d, *s.table.at(i))] = true
		}
		uses := 0
		for v := range values {
			uses += bank.Table(d).RefCount(v)
		}
		if bank.Table(d).Len() != len(values) || uses != s.table.len() {
			t.Fatalf("%s: the bank labels %d values with %d uses, the rule table has %d values in %d rules",
				d, bank.Table(d).Len(), uses, len(values), s.table.len())
		}
	}
}

// requireChurnAgreesWithReference deletes and re-inserts every third rule of
// the set (of a set past 900 rules, about 300 rules spread over it) — each
// pair releases and re-acquires labels through the bank — and then checks
// every trace header against the linear reference.
func requireChurnAgreesWithReference(t *testing.T, c *Classifier, rs *fivetuple.RuleSet, trace []fivetuple.Header) {
	t.Helper()
	for i := 0; i < rs.Len(); i += max(3, rs.Len()/300) {
		if _, err := c.DeleteRule(rs.Rule(i)); err != nil {
			t.Fatalf("DeleteRule(%d): %v", i, err)
		}
		if _, err := c.InsertRule(rs.Rule(i)); err != nil {
			t.Fatalf("InsertRule(%d): %v", i, err)
		}
	}
	requireBankMatchesPublished(t, c)
	for _, h := range trace {
		wantPriority, wantOK := rs.Classify(h)
		if got := c.Lookup(h); got.Matched != wantOK || (wantOK && got.Priority != wantPriority) {
			t.Fatalf("Lookup(%s) = (%v, %d), reference (%v, %d)", h, got.Matched, got.Priority, wantOK, wantPriority)
		}
	}
}

// freshRules returns n IPv4 rules no ClassBench set contains, each with
// address segments and a source port of its own, so each one creates labels.
func freshRules(n, firstPriority int) []fivetuple.Rule {
	rules := make([]fivetuple.Rule, n)
	for i := range rules {
		rules[i] = fivetuple.Wildcard(firstPriority+i, fivetuple.ActionDrop)
		rules[i].SrcPrefix = fivetuple.MustParsePrefix(fmt.Sprintf("203.%d.113.%d/32", i, i))
		rules[i].DstPrefix = fivetuple.MustParsePrefix(fmt.Sprintf("198.%d.100.0/24", i))
		if i < 8 {
			rules[i].SrcPort = fivetuple.ExactPort(uint16(61000 + i))
		}
	}
	return rules
}

func TestAbandonedUpdateRestoresLabelBank(t *testing.T) {
	rs, _ := allocTrace(t)
	trace := classbench.GenerateTrace(rs, classbench.TraceConfig{Packets: 2000, Seed: 5, MatchFraction: 0.9})
	// published is the bookkeeping an abandoned update must leave as it was.
	type published struct {
		rules  int
		memory MemoryReport
	}
	publishedOf := func(c *Classifier) published {
		rep := c.Report()
		return published{rep.RulesInstalled, rep.Memory}
	}
	install := func(t *testing.T) (*Classifier, published) {
		c, _ := newAllocClassifier(t, "mbt", false)
		requireBankMatchesPublished(t, c)
		return c, publishedOf(c)
	}
	requireUnchanged := func(t *testing.T, c *Classifier, before published) {
		t.Helper()
		if after := publishedOf(c); after != before {
			t.Fatalf("the abandoned update changed the published rule count or memory report:\n before %+v\n after  %+v", before, after)
		}
		requireBankMatchesPublished(t, c)
		requireChurnAgreesWithReference(t, c, rs, trace)
	}

	// A 40-rule install whose last rule the field tier refuses: 39 inserts
	// with fresh field values were applied to the bank by then.
	t.Run("InstallRuleSet", func(t *testing.T) {
		c, before := install(t)
		rules := freshRules(39, 100000)
		v6 := fivetuple.Wildcard(200000, fivetuple.ActionDrop)
		var err error
		if v6.Src6, err = fivetuple.ParsePrefix6("2001:db8::/32"); err != nil {
			t.Fatal(err)
		}
		rules = append(rules, v6)
		if _, err := c.InstallRuleSet(fivetuple.NewRuleSet("refused", rules)); !errors.Is(err, ErrDimsUnsupported) {
			t.Fatalf("InstallRuleSet = %v, want ErrDimsUnsupported", err)
		}
		requireUnchanged(t, c, before)
	})

	// A batch-level abandon: 39 inserts, then a deletion the field engine
	// declines — the published protocol engine was tampered with, so the
	// deletion fails in its last dimension, after six labels were released,
	// and rolls itself back — and 130 inserts of fresh destination ports,
	// past the 128 labels of the destination-port dimension, which the
	// rebuild the decline asks for cannot hold.
	t.Run("ApplyUpdates", func(t *testing.T) {
		c, _ := install(t)
		victim := fivetuple.Wildcard(300000, fivetuple.ActionDrop)
		victim.Protocol = fivetuple.ExactProtocol(99)
		if _, err := c.InsertRule(victim); err != nil {
			t.Fatal(err)
		}
		before := publishedOf(c)
		proto := fieldEngine(t, c).Field(label.DimProtocol)
		lbl, _ := fieldEngine(t, c).Labels().Table(label.DimProtocol).Lookup(engine.Exact(99))
		if _, err := proto.Remove(engine.Exact(99), lbl); err != nil {
			t.Fatal(err)
		}
		var ops []UpdateOp
		for _, r := range freshRules(39, 100000) {
			ops = append(ops, UpdateOp{Rule: r})
		}
		ops = append(ops, UpdateOp{Delete: true, Rule: victim})
		for i, r := range freshRules(130, 400000) {
			r.DstPort = fivetuple.ExactPort(uint16(50000 + i))
			ops = append(ops, UpdateOp{Rule: r})
		}
		if _, _, err := c.ApplyUpdates(ops); !errors.Is(err, label.ErrTableFull) {
			t.Fatalf("ApplyUpdates = %v, want the batch abandoned on the rebuild's full port label table", err)
		}
		if _, err := proto.Insert(engine.Exact(99), lbl, victim.Priority); err != nil {
			t.Fatal(err)
		}
		requireBankMatchesPublished(t, c)
		if _, err := c.DeleteRule(victim); err != nil {
			t.Fatalf("deleting the rule the abandoned batch failed on: %v", err)
		}
		before.rules--
		before.memory.RuleFilterUsedBits -= fieldtier.DefaultRuleEntryBits
		before.memory.LabelTableBits = c.Report().Memory.LabelTableBits
		requireUnchanged(t, c, before)
	})

	// A failed engine switch programmes a tier of its own, bank included, and
	// drops it: the serving tier's bank is not touched.
	t.Run("SelectEngine", func(t *testing.T) {
		c := MustNew(DefaultConfig())
		if err := c.SelectEngine("bst"); err != nil {
			t.Fatal(err)
		}
		over := capacityRuleSet(fieldtier.RuleCapacityFor("mbt") + 1) // bst holds it, mbt does not
		if _, err := c.InstallRuleSet(over); err != nil {
			t.Fatal(err)
		}
		before := publishedOf(c)
		if err := c.SelectEngine("mbt"); !errors.Is(err, ErrRuleFilterFull) {
			t.Fatalf("SelectEngine(mbt) = %v, want ErrRuleFilterFull", err)
		}
		if after := publishedOf(c); after != before {
			t.Fatalf("the failed switch changed the rule count or memory report:\n before %+v\n after  %+v", before, after)
		}
		requireChurnAgreesWithReference(t, c, over, classbench.GenerateTrace(over, classbench.TraceConfig{Packets: 500, Seed: 5, MatchFraction: 0.9}))
	})
}

// TestRolledBackInsertReseatsPriority: an insert that improves an existing
// field value's best priority and then fails in a later dimension must leave
// the value's engine entry at the surviving rules' best, not at the
// rolled-back rule's. Two 10.0.0.0/8 rules fill both destination-port
// registers; the batch's insert of a better 10.0.0.0/8 rule with a third
// port range fails on the full bank after re-writing the shared source
// segments, and the batch's delete still publishes. A skewed entry changes
// the list heads: the /8's label outranks the 10.1.0.0/16 rule's, so the
// paper's single probe would land on the worse rule.
func TestRolledBackInsertReseatsPriority(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PortRegisters = 2
	cfg.CacheCapacity = 0
	rule := func(src string, ports fivetuple.PortRange, priority int) fivetuple.Rule {
		r := fivetuple.Wildcard(priority, fivetuple.ActionForward)
		r.SrcPrefix, r.DstPort, r.ActionArg = fivetuple.MustParsePrefix(src), ports, uint32(priority)
		return r
	}
	low, high := fivetuple.PortRange{Lo: 1000, Hi: 1999}, fivetuple.PortRange{Lo: 2000, Hi: 2999}
	c := MustNew(cfg)
	for _, r := range []fivetuple.Rule{rule("10.0.0.0/8", low, 10), rule("10.0.0.0/8", high, 11), rule("10.1.0.0/16", low, 7)} {
		if _, err := c.InsertRule(r); err != nil {
			t.Fatal(err)
		}
	}
	_, errs, err := c.ApplyUpdates([]UpdateOp{
		{Rule: rule("10.0.0.0/8", fivetuple.PortRange{Lo: 3000, Hi: 3999}, 5)},
		{Delete: true, Rule: rule("10.0.0.0/8", high, 11)},
	})
	if err != nil || !errors.Is(errs[0], portreg.ErrBankFull) || errs[1] != nil {
		t.Fatalf("ApplyUpdates = %v / %v, want the insert refused on the full port bank and the delete applied", err, errs)
	}

	// Every value of the priority-ordered dimensions (the IP segments; port
	// and protocol lists are ordered by specificity) carries its best.
	s, f := c.view(), fieldEngine(t, c)
	var list label.List
	for i := range s.table.len() {
		for _, d := range ipSegmentDims {
			v := engine.RuleValue(d, *s.table.at(i))
			lbl, _ := f.Labels().Table(d).Lookup(v)
			best, _ := f.Labels().Table(d).Best(v)
			f.Field(d).LookupInto(v.Value, &list)
			found := false
			for j := range list.Len() {
				if pl := list.At(j); pl.Label == lbl {
					found = true
					if pl.Priority != best {
						t.Errorf("%s: value %s is listed at priority %d, its best rule's is %d", d, v, pl.Priority, best)
					}
				}
			}
			if !found {
				t.Fatalf("%s: value %s (label %d) is not in its own lookup's list", d, v, lbl)
			}
		}
	}

	// Each list's head is the best rule's value, at that value's best.
	header := func(src string, port uint16) fivetuple.Header {
		return fivetuple.Header{SrcIP: fivetuple.MustParseIPv4(src), DstIP: fivetuple.MustParseIPv4("192.0.2.1"), DstPort: port, Protocol: fivetuple.ProtoTCP}
	}
	requireHeads(t, c, header("10.1.2.3", 1500), rule("10.1.0.0/16", low, 7))
	requireHeads(t, c, header("10.2.3.4", 1500), rule("10.0.0.0/8", low, 10))
	if _, ok := fieldHeads(t, c, header("10.1.2.3", 2500)); ok {
		t.Error("the deleted rule's port range still yields a label")
	}
}
