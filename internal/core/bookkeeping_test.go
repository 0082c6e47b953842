package core

import (
	"errors"
	"fmt"
	"testing"

	"sdnpc/internal/classbench"
	"sdnpc/internal/engine"
	"sdnpc/internal/fivetuple"
	"sdnpc/internal/label"
)

// The field tier's label bank is shared by every generation of the tier and
// written in place by the transaction in flight, so a transaction that is
// abandoned after applying ops must leave it describing the published rule
// table again. These tests abandon transactions every way one can be
// abandoned and then make the classifier prove the bank still fits: by its
// contents, and by churning rules through it against the linear reference.

// requireBankMatchesPublished asserts that the writer-side label bank is
// exactly what the published rule table implies: every installed rule's field
// values carry the labels packed in its combination key, the reference
// counters add up to one use per rule and dimension, nothing else is
// labelled, and the footprint Report publishes is the bank's.
func requireBankMatchesPublished(t *testing.T, c *Classifier) {
	t.Helper()
	s := c.view()
	bank := s.field.labels
	if got, want := bank.StorageBits(), c.Report().Memory.LabelTableBits; got != want {
		t.Fatalf("bookkeeping holds %d label bits, published %d", got, want)
	}
	for _, d := range label.Dimensions() {
		values := map[engine.Value]bool{}
		for _, ir := range s.installed {
			v := fieldValue(d, ir.rule)
			values[v] = true
			if lbl, ok := bank.Table(d).Lookup(v); !ok || lbl != ir.key.Label(d) {
				t.Fatalf("%s: value %s of rule %d is labelled (%d, %v) in the bank, %d in the rule's key",
					d, v, ir.rule.Priority, lbl, ok, ir.key.Label(d))
			}
		}
		uses := 0
		for v := range values {
			uses += bank.Table(d).RefCount(v)
		}
		if bank.Table(d).Len() != len(values) || uses != len(s.installed) {
			t.Fatalf("%s: the bank labels %d values with %d uses, the rule table has %d values in %d rules",
				d, bank.Table(d).Len(), uses, len(values), len(s.installed))
		}
	}
}

// requireChurnAgreesWithReference deletes and re-inserts every third rule of
// the set — each pair releases and re-acquires labels through the bank — and
// then checks every trace header against the linear reference.
func requireChurnAgreesWithReference(t *testing.T, c *Classifier, rs *fivetuple.RuleSet, trace []fivetuple.Header) {
	t.Helper()
	for i := 0; i < rs.Len(); i += 3 {
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
	install := func(t *testing.T) (*Classifier, MemoryReport) {
		c, _ := newAllocClassifier(t, "mbt", false)
		requireBankMatchesPublished(t, c)
		return c, c.Report().Memory
	}
	requireUnchanged := func(t *testing.T, c *Classifier, before MemoryReport) {
		t.Helper()
		if after := c.Report().Memory; after != before {
			t.Fatalf("the abandoned update changed the published memory report:\n before %+v\n after  %+v", before, after)
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

	// A batch-level abandon: 39 inserts, then a deletion that fails in its
	// last dimension — after the Rule Filter entry and six labels are gone —
	// because the published protocol engine was tampered with.
	t.Run("ApplyUpdates", func(t *testing.T) {
		c, _ := install(t)
		victim := fivetuple.Wildcard(300000, fivetuple.ActionDrop)
		victim.Protocol = fivetuple.ExactProtocol(99)
		if _, err := c.InsertRule(victim); err != nil {
			t.Fatal(err)
		}
		before := c.Report().Memory
		proto := c.view().field.engines[label.DimProtocol]
		lbl, _ := c.view().field.labels.Table(label.DimProtocol).Lookup(engine.Exact(99))
		if _, err := proto.Remove(engine.Exact(99), lbl); err != nil {
			t.Fatal(err)
		}
		var ops []UpdateOp
		for _, r := range freshRules(39, 100000) {
			ops = append(ops, UpdateOp{Rule: r})
		}
		ops = append(ops, UpdateOp{Delete: true, Rule: victim})
		if _, _, err := c.ApplyUpdates(ops); err == nil {
			t.Fatal("ApplyUpdates published a batch whose deletion failed midway")
		}
		if _, err := proto.Insert(engine.Exact(99), lbl, victim.Priority); err != nil {
			t.Fatal(err)
		}
		requireBankMatchesPublished(t, c)
		if _, err := c.DeleteRule(victim); err != nil {
			t.Fatalf("deleting the rule the abandoned batch failed on: %v", err)
		}
		before.RulesInstalled--
		before.RuleFilterUsedBits -= c.Config().RuleEntryBits
		before.LabelTableBits = c.Report().Memory.LabelTableBits
		requireUnchanged(t, c, before)
	})

	// A failed engine switch programmes a tier of its own, bank included, and
	// drops it: the serving tier's bank is not touched.
	t.Run("SelectEngine", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.RuleFilterAddressBits = 4 // 16 rules under mbt, more under bst
		c := MustNew(cfg)
		if err := c.SelectEngine("bst"); err != nil {
			t.Fatal(err)
		}
		small := classbench.Generate(classbench.Config{Class: classbench.ACL, Rules: 40, Seed: 2})
		if _, err := c.InstallRuleSet(small); err != nil {
			t.Fatal(err)
		}
		before := c.Report().Memory
		if err := c.SelectEngine("mbt"); !errors.Is(err, ErrRuleFilterFull) {
			t.Fatalf("SelectEngine(mbt) = %v, want ErrRuleFilterFull", err)
		}
		if after := c.Report().Memory; after != before {
			t.Fatalf("the failed switch changed the memory report:\n before %+v\n after  %+v", before, after)
		}
		requireChurnAgreesWithReference(t, c, small, classbench.GenerateTrace(small, classbench.TraceConfig{Packets: 500, Seed: 5, MatchFraction: 0.9}))
	})
}
