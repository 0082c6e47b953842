package core

import (
	"errors"
	"testing"

	"sdnpc/internal/classbench"
	"sdnpc/internal/fieldtier"
	"sdnpc/internal/fivetuple"
)

// TestBSTCapacityBoundary fills the bst configuration's Rule Filter (the
// base slots plus the freed MBT blocks, Fig. 5) to its last slot and requires
// the next rule to be refused by it, with nothing published.
func TestBSTCapacityBoundary(t *testing.T) {
	bstCap := fieldtier.RuleCapacityFor("bst")
	if bstCap != 11512 {
		t.Fatalf("bst capacity = %d, want Table VI's 11512", bstCap)
	}
	cfg := DefaultConfig()
	cfg.IPEngine = "bst"
	c := MustNew(cfg)
	rs := capacityRuleSet(bstCap + 1)
	if _, err := c.InstallRuleSet(fivetuple.NewRuleSet("full", rs.Rules()[:bstCap])); err != nil {
		t.Fatalf("installing the %d rules the bst configuration holds: %v", bstCap, err)
	}
	gen := c.Generation()
	if _, err := c.InsertRule(rs.Rule(bstCap)); !errors.Is(err, ErrRuleFilterFull) {
		t.Fatalf("insert of rule %d = %v, want ErrRuleFilterFull", bstCap+1, err)
	}
	if c.RuleCount() != bstCap || c.Generation() != gen {
		t.Errorf("after the refused insert: %d rules at generation %d, want %d at %d",
			c.RuleCount(), c.Generation(), bstCap, gen)
	}
	if rep := c.Report(); rep.RuleCapacity != bstCap || rep.RulesInstalled != bstCap {
		t.Errorf("Report: %d of %d rules, want %d of %d", rep.RulesInstalled, rep.RuleCapacity, bstCap, bstCap)
	}
}

// TestPacketEnginesHoldPastTheRuleFilter installs a 50 000-rule ACL set —
// four times the largest Rule Filter — through the classifier on the
// whole-packet engines, which have no fixed capacity, switching between them
// with the rules installed, and checks sampled headers against the rule
// set's own linear classification after every step.
func TestPacketEnginesHoldPastTheRuleFilter(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 50 000-rule set on three engines")
	}
	rs := classbench.Generate(classbench.Config{Class: classbench.ACL, Rules: 50000, Seed: 50})
	if rs.Len() <= 4*fieldtier.RuleCapacityFor("bst") {
		t.Fatalf("generated %d rules, want more than four Rule Filters hold", rs.Len())
	}
	trace := classbench.GenerateTrace(rs, classbench.TraceConfig{Packets: 1000, Seed: 51, MatchFraction: 0.9})
	type verdict struct {
		idx int
		ok  bool
	}
	want := make([]verdict, len(trace))
	for i, h := range trace {
		want[i].idx, want[i].ok = rs.Classify(h)
	}
	check := func(t *testing.T, c *Classifier, step string) {
		t.Helper()
		if c.RuleCount() != rs.Len() {
			t.Fatalf("%s: %d rules installed, want %d", step, c.RuleCount(), rs.Len())
		}
		if capacity := c.Report().RuleCapacity; capacity != 0 {
			t.Errorf("%s: Report().RuleCapacity = %d, want 0 (no fixed capacity)", step, capacity)
		}
		for i, h := range trace {
			if got, w := c.Lookup(h), want[i]; got.Matched != w.ok || (w.ok && got.Priority != w.idx) {
				t.Fatalf("%s: Lookup(%s) = (%v, %d), reference (%v, %d)", step, h, got.Matched, got.Priority, w.ok, w.idx)
			}
		}
	}
	for _, first := range []string{"hypercuts", "dcfl", "linear"} {
		t.Run(first, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.SetEngine(first)
			c := MustNew(cfg)
			if _, err := c.InstallRuleSet(rs); err != nil {
				t.Fatalf("InstallRuleSet on %s: %v", first, err)
			}
			check(t, c, "install on "+first)
			// A hop to each other packet engine, then back.
			for _, name := range []string{"hypercuts", "dcfl", "linear", first} {
				if err := c.SelectEngine(name); err != nil {
					t.Fatalf("SelectEngine(%s): %v", name, err)
				}
				check(t, c, first+" → "+name)
			}
			// The field engine's Rule Filter is the one limit.
			if err := c.SelectEngine("mbt"); !errors.Is(err, ErrRuleFilterFull) {
				t.Fatalf("SelectEngine(mbt) over %d rules = %v, want ErrRuleFilterFull", rs.Len(), err)
			}
			check(t, c, "refused switch to mbt")
		})
	}
}
