package core

import (
	"testing"

	"sdnpc/internal/classbench"
	"sdnpc/internal/engine"
	"sdnpc/internal/fivetuple"
	"sdnpc/internal/label"
)

// checkAgainstOracle looks every header up and fails on the first verdict
// that differs from the linear reference classifier. It returns the summed
// Rule Filter slots read.
func checkAgainstOracle(t *testing.T, c *Classifier, rs *fivetuple.RuleSet, trace []fivetuple.Header) (probes int) {
	t.Helper()
	for _, h := range trace {
		wantIdx, wantOK := rs.Classify(h)
		got := c.Lookup(h)
		if got.Matched != wantOK || (wantOK && got.Priority != wantIdx) {
			t.Fatalf("Lookup(%s) = (%v, %d), reference = (%v, %d)", h, got.Matched, got.Priority, wantOK, wantIdx)
		}
		probes += got.RuleFilterProbes
	}
	return probes
}

// The exact combination agrees with the oracle on the wildcard-heavy classes
// too, and gets there in a handful of Rule Filter slots per packet — not the
// hundreds to thousands of label combinations those headers present.
func TestExactCombinationProbesFewSlots(t *testing.T) {
	for _, class := range []classbench.Class{classbench.ACL, classbench.FW, classbench.IPC} {
		t.Run(class.String(), func(t *testing.T) {
			rs := classbench.Generate(classbench.StandardConfig(class, classbench.Size1K))
			c := MustNew(DefaultConfig())
			if _, err := c.InstallRuleSet(rs); err != nil {
				t.Fatalf("InstallRuleSet: %v", err)
			}
			trace := classbench.GenerateTrace(rs, classbench.TraceConfig{Packets: 2000, Seed: 31, MatchFraction: 0.9})
			probes := checkAgainstOracle(t, c, rs, trace)
			stats := c.Report().Stats
			mean := float64(probes) / float64(len(trace))
			t.Logf("%s: %.1f label combinations presented, %.2f Rule Filter slots read per packet", rs.Name, stats.AverageCombinations(), mean)
			if mean > 16 {
				t.Errorf("%s: %.2f Rule Filter slots read per packet, want at most 16", rs.Name, mean)
			}
			if stats.AverageCombinations() < 10*mean {
				t.Errorf("%s: modelled cross-product is %.1f combinations per packet against %.2f slots read; the walk is not pruning",
					rs.Name, stats.AverageCombinations(), mean)
			}
		})
	}
}

// A header whose walk would read more Rule Filter slots than
// MaxCrossProductProbes allows is answered by the installed-rule scan, never
// by the best hit found before the budget ran out.
func TestProbeBudgetExhaustionStaysExact(t *testing.T) {
	rs := classbench.Generate(classbench.StandardConfig(classbench.ACL, classbench.Size1K))
	cfg := DefaultConfig()
	cfg.MaxCrossProductProbes = 1
	c := MustNew(cfg)
	if _, err := c.InstallRuleSet(rs); err != nil {
		t.Fatalf("InstallRuleSet: %v", err)
	}
	trace := classbench.GenerateTrace(rs, classbench.TraceConfig{Packets: 2000, Seed: 37, MatchFraction: 0.9})
	fellBack := 0
	for _, h := range trace {
		wantIdx, wantOK := rs.Classify(h)
		got := c.Lookup(h)
		if got.Matched != wantOK || (wantOK && got.Priority != wantIdx) {
			t.Fatalf("budget 1: Lookup(%s) = (%v, %d), reference = (%v, %d)", h, got.Matched, got.Priority, wantOK, wantIdx)
		}
		if got.Combinations != 1 {
			t.Fatalf("budget 1: Lookup(%s) reports %d combinations, want the modelled count capped at 1", h, got.Combinations)
		}
		if got.FieldAccesses > rs.Len() {
			fellBack++
		}
	}
	if fellBack == 0 {
		t.Error("no header exhausted a one-slot budget; the fallback path was not exercised")
	}
}

// A label recycled from a deleted rule to a different field value must not
// carry the old rule's prefixes across the publish: headers of the deleted
// rule stop matching, headers of the new rule match it. (That the prefix set
// covers every stored key across the recycle is the field engine's own
// test, TestPrefixSetCoversLiveEntries.)
func TestRecycledLabelLeavesNoStalePrefix(t *testing.T) {
	old := mustRule(t, "10.1.0.0/16", "192.168.1.0/24", 80, fivetuple.ProtoTCP, 0)
	keep := mustRule(t, "10.9.0.0/16", "192.168.9.0/24", 22, fivetuple.ProtoTCP, 1)
	fresh := mustRule(t, "10.2.0.0/16", "192.168.2.0/24", 443, fivetuple.ProtoTCP, 0)
	oldHeader := fivetuple.Header{
		SrcIP: fivetuple.MustParseIPv4("10.1.3.4"), DstIP: fivetuple.MustParseIPv4("192.168.1.7"),
		SrcPort: 4000, DstPort: 80, Protocol: fivetuple.ProtoTCP,
	}
	freshHeader := fivetuple.Header{
		SrcIP: fivetuple.MustParseIPv4("10.2.3.4"), DstIP: fivetuple.MustParseIPv4("192.168.2.7"),
		SrcPort: 4000, DstPort: 443, Protocol: fivetuple.ProtoTCP,
	}

	c := MustNew(DefaultConfig())
	for _, r := range []fivetuple.Rule{old, keep} {
		if _, err := c.InsertRule(r); err != nil {
			t.Fatalf("InsertRule(%s): %v", r, err)
		}
	}
	oldLabel, ok := fieldEngine(t, c).Labels().Table(label.DimSrcIPHigh).Lookup(engine.RuleValue(label.DimSrcIPHigh, old))
	if !ok {
		t.Fatal("the first rule's source segment is not labelled")
	}

	if _, err := c.DeleteRule(old); err != nil {
		t.Fatalf("DeleteRule: %v", err)
	}
	if _, err := c.InsertRule(fresh); err != nil {
		t.Fatalf("InsertRule(%s): %v", fresh, err)
	}
	freshLabel, ok := fieldEngine(t, c).Labels().Table(label.DimSrcIPHigh).Lookup(engine.RuleValue(label.DimSrcIPHigh, fresh))
	if !ok || freshLabel != oldLabel {
		t.Fatalf("the new rule's source segment got label %d (found %v), want the recycled label %d", freshLabel, ok, oldLabel)
	}

	rs := fivetuple.NewRuleSet("recycled", []fivetuple.Rule{fresh, keep})
	checkAgainstOracle(t, c, rs, []fivetuple.Header{oldHeader, freshHeader})
	if got := c.Lookup(oldHeader); got.Matched {
		t.Errorf("the deleted rule's header still matches (priority %d)", got.Priority)
	}
	if got := c.Lookup(freshHeader); !got.Matched || got.ActionArg != fresh.ActionArg || got.Priority != fresh.Priority {
		t.Errorf("the new rule's header: got %+v, want a match on priority %d", got, fresh.Priority)
	}
}
