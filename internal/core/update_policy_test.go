package core

import (
	"fmt"
	"testing"

	"sdnpc/internal/engine"
	"sdnpc/internal/fivetuple"
)

// policyRules builds n distinct, non-overlapping rules (one exact dst port
// each) so HyperCuts keeps its leaves balanced and degradation stays zero —
// the delta counters can then be pinned exactly.
func policyRules(n int) []fivetuple.Rule {
	out := make([]fivetuple.Rule, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, fivetuple.Rule{
			SrcPrefix: fivetuple.MustParsePrefix(fmt.Sprintf("10.%d.0.0/16", i%200)),
			DstPrefix: fivetuple.MustParsePrefix("192.168.0.0/16"),
			SrcPort:   fivetuple.WildcardPortRange(),
			DstPort:   fivetuple.ExactPort(uint16(1000 + i)),
			Protocol:  fivetuple.ExactProtocol(fivetuple.ProtoTCP),
			Priority:  i,
			Action:    fivetuple.ActionForward,
			ActionArg: uint32(i),
		})
	}
	return out
}

// TestRebuildAfterDeltasPolicyPinsK pins the amortisation bound: with
// RebuildAfterDeltas = K, exactly the K-th single-rule publish rebuilds and
// resets the delta debt, and the cycle repeats.
func TestRebuildAfterDeltasPolicyPinsK(t *testing.T) {
	const k = 3
	cfg := DefaultConfig()
	cfg.PacketEngine = "hypercuts"
	cfg.RebuildAfterDeltas = k
	c := MustNew(cfg)
	base := fivetuple.NewRuleSet("base", policyRules(10))
	if _, err := c.InstallRuleSet(base); err != nil {
		t.Fatal(err)
	}
	// The bulk install exceeds the delta budget outright: one rebuild.
	stats := c.Report().Updates
	if stats.Rebuilds != 1 || stats.DeltasApplied != 0 || stats.DeltasSinceRebuild != 0 {
		t.Fatalf("after bulk install: %+v, want exactly one rebuild and no deltas", stats)
	}

	extra := policyRules(2 * k)
	for i := range extra {
		extra[i].Priority = 100 + i
		extra[i].DstPort = fivetuple.ExactPort(uint16(2000 + i))
	}
	want := []struct {
		rebuilds, deltas uint64
		debt             int
	}{
		{1, 1, 1}, // delta 1
		{1, 2, 2}, // delta 2
		{2, 2, 0}, // the K-th publish trips the bound: rebuild, debt reset
		{2, 3, 1}, // the cycle restarts
		{2, 4, 2},
		{3, 4, 0},
	}
	for i, r := range extra {
		if _, err := c.InsertRule(r); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		stats := c.Report().Updates
		if stats.Rebuilds != want[i].rebuilds || stats.DeltasApplied != want[i].deltas ||
			stats.DeltasSinceRebuild != want[i].debt {
			t.Fatalf("after single insert %d: rebuilds=%d deltas=%d debt=%d, want %+v",
				i, stats.Rebuilds, stats.DeltasApplied, stats.DeltasSinceRebuild, want[i])
		}
	}
	if got := c.Report().Updates.PublishLatency.Total(); got != uint64(1+len(extra)) {
		t.Errorf("PublishLatency.Total() = %d, want %d publishes", got, 1+len(extra))
	}
}

// TestDegradationThresholdTriggersRebuild drives one HyperCuts leaf past the
// configured degradation threshold and requires the tripping publish itself
// to rebuild (and reset the debt), with the bound K disabled so only the
// threshold can fire.
func TestDegradationThresholdTriggersRebuild(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PacketEngine = "hypercuts"
	cfg.RebuildAfterDeltas = -1 // unbounded: only degradation may force rebuilds
	cfg.DegradationThreshold = 0.2
	c := MustNew(cfg)

	// 16 identical wildcard rules = exactly one full leaf (binth 16): every
	// further overlapping insert adds tracked overflow.
	var base []fivetuple.Rule
	for i := 0; i < 16; i++ {
		base = append(base, fivetuple.Wildcard(i, fivetuple.ActionForward))
	}
	if _, err := c.InstallRuleSet(fivetuple.NewRuleSet("wild", base)); err != nil {
		t.Fatal(err)
	}
	if got := c.Report().Updates.Rebuilds; got != 1 {
		t.Fatalf("Rebuilds after install = %d, want 1", got)
	}

	// Degradation after n overflowing inserts is n/(16+n): inserts 1..3 stay
	// below 0.2 and delta-apply; the 4th reaches 4/20 = 0.2 and must rebuild
	// in the same publish.
	for i := 0; i < 4; i++ {
		r := fivetuple.Wildcard(100+i, fivetuple.ActionDrop)
		if _, err := c.InsertRule(r); err != nil {
			t.Fatal(err)
		}
		rep := c.Report()
		stats, report := rep.Updates, rep.Memory
		if i < 3 {
			if stats.Rebuilds != 1 || stats.DeltasSinceRebuild != i+1 {
				t.Fatalf("insert %d: rebuilds=%d debt=%d, want the delta path", i, stats.Rebuilds, stats.DeltasSinceRebuild)
			}
			if report.PacketEngineDegradation <= 0 {
				t.Fatalf("insert %d: degradation = %v, want > 0 while drifting", i, report.PacketEngineDegradation)
			}
		} else {
			if stats.Rebuilds != 2 || stats.DeltasSinceRebuild != 0 {
				t.Fatalf("tripping insert: rebuilds=%d debt=%d, want a same-publish rebuild with the debt reset",
					stats.Rebuilds, stats.DeltasSinceRebuild)
			}
			if report.PacketEngineDegradation != 0 || report.PacketEngineDeltas != 0 {
				t.Fatalf("after the amortising rebuild: degradation=%v deltas=%d, want a clean structure",
					report.PacketEngineDegradation, report.PacketEngineDeltas)
			}
		}
	}
}

// TestNegativeThresholdDisablesDegradationTrip pins the
// negative-disables convention: with both bounds negative, churn that would
// trip the default threshold keeps delta-applying and never rebuilds.
func TestNegativeThresholdDisablesDegradationTrip(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PacketEngine = "hypercuts"
	cfg.RebuildAfterDeltas = -1
	cfg.DegradationThreshold = -1
	c := MustNew(cfg)
	var base []fivetuple.Rule
	for i := 0; i < 16; i++ {
		base = append(base, fivetuple.Wildcard(i, fivetuple.ActionForward))
	}
	if _, err := c.InstallRuleSet(fivetuple.NewRuleSet("wild", base)); err != nil {
		t.Fatal(err)
	}
	// 32 fully overlapping inserts push Degradation to 32/48 = 0.67, past
	// the default 0.5 trip — which must stay disabled.
	for i := 0; i < 32; i++ {
		if _, err := c.InsertRule(fivetuple.Wildcard(100+i, fivetuple.ActionDrop)); err != nil {
			t.Fatal(err)
		}
	}
	stats := c.Report().Updates
	if stats.Rebuilds != 1 || stats.DeltasSinceRebuild != 32 {
		t.Fatalf("stats = %+v, want only the bulk-install rebuild and 32 carried deltas", stats)
	}
	if got := c.Report().Memory.PacketEngineDegradation; got <= 0.5 {
		t.Fatalf("degradation = %v, want the drift past the (disabled) default trip", got)
	}
}

// TestNonIncrementalEnginesAlwaysRebuild pins the fallback: an engine
// without delta support pays one full rebuild per publish, visible through
// UpdateStats.Rebuilds.
func TestNonIncrementalEnginesAlwaysRebuild(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PacketEngine = "rfc-full"
	c := MustNew(cfg)
	if _, err := c.InstallRuleSet(fivetuple.NewRuleSet("base", policyRules(8))); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		r := policyRules(1)[0]
		r.Priority = 50 + i
		r.DstPort = fivetuple.ExactPort(uint16(3000 + i))
		if _, err := c.InsertRule(r); err != nil {
			t.Fatal(err)
		}
	}
	stats := c.Report().Updates
	if stats.Rebuilds != 4 || stats.DeltasApplied != 0 || stats.DeltaPublishes != 0 {
		t.Fatalf("rfc-full stats = %+v, want one rebuild per publish and zero deltas", stats)
	}
}

// TestFieldTierPublishesCountOnlyLatency pins that field-tier-only updates
// appear in the publish-latency histogram but in neither packet-tier
// counter.
func TestFieldTierPublishesCountOnlyLatency(t *testing.T) {
	c := MustNew(DefaultConfig())
	rules := policyRules(5)
	for _, r := range rules {
		if _, err := c.InsertRule(r); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.DeleteRule(rules[0]); err != nil {
		t.Fatal(err)
	}
	stats := c.Report().Updates
	if stats.Rebuilds != 0 || stats.DeltasApplied != 0 || stats.DeltaPublishes != 0 {
		t.Fatalf("field-tier stats = %+v, want zero packet-tier activity", stats)
	}
	if got := stats.PublishLatency.Total(); got != 6 {
		t.Fatalf("PublishLatency.Total() = %d, want 6 publishes", got)
	}
	if stats.PublishLatency.P50() <= 0 || stats.PublishLatency.P99() < stats.PublishLatency.P50() {
		t.Fatalf("publish latency quantiles inconsistent: p50=%v p99=%v",
			stats.PublishLatency.P50(), stats.PublishLatency.P99())
	}
}

// TestBatchedUpdatesDeltaApplyAsOnePublish pins that ApplyUpdates drains its
// whole batch through the delta path as a single publish when the budget
// allows.
func TestBatchedUpdatesDeltaApplyAsOnePublish(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PacketEngine = "dcfl"
	cfg.RebuildAfterDeltas = 100
	c := MustNew(cfg)
	if _, err := c.InstallRuleSet(fivetuple.NewRuleSet("base", policyRules(10))); err != nil {
		t.Fatal(err)
	}
	extra := policyRules(3)
	for i := range extra {
		extra[i].Priority = 60 + i
		extra[i].DstPort = fivetuple.ExactPort(uint16(4000 + i))
	}
	ops := []UpdateOp{
		{Rule: extra[0]},
		{Rule: extra[1]},
		{Rule: extra[2]},
		{Delete: true, Rule: extra[1]},
	}
	if _, _, err := c.ApplyUpdates(ops); err != nil {
		t.Fatal(err)
	}
	stats := c.Report().Updates
	if stats.DeltaPublishes != 1 || stats.DeltasApplied != 4 || stats.DeltasSinceRebuild != 4 {
		t.Fatalf("after batch: %+v, want one delta publish absorbing all four ops", stats)
	}
	// The batch went through the delta path; the verdicts must still be
	// exact.
	for _, r := range append(policyRules(10), extra[0], extra[2]) {
		h := fivetuple.Header{
			SrcIP: r.SrcPrefix.Addr, DstIP: r.DstPrefix.Addr,
			SrcPort: 5, DstPort: r.DstPort.Lo, Protocol: fivetuple.ProtoTCP,
		}
		got := c.Lookup(h)
		if !got.Matched {
			t.Fatalf("rule %d unreachable after delta batch", r.Priority)
		}
	}
	if r := c.Lookup(fivetuple.Header{
		SrcIP: extra[1].SrcPrefix.Addr, DstIP: extra[1].DstPrefix.Addr,
		SrcPort: 5, DstPort: extra[1].DstPort.Lo, Protocol: fivetuple.ProtoTCP,
	}); r.Matched {
		t.Fatalf("deleted batch rule still matches: %+v", r)
	}
}

// TestRetiredIDsStayBounded pins the bound on a packet engine's retired ids.
// With both rebuild triggers disabled, only the engine's own refusal — a
// delete that would leave more dead ids than live ones plus 64 — turns a
// publish into a rebuild, which renumbers. So 10 000 delete/insert pairs keep
// the structure's id count at or below 2 × live + 64, and verdicts still match
// the oracle.
func TestRetiredIDsStayBounded(t *testing.T) {
	rules := policyRules(40)
	headers := make([]fivetuple.Header, len(rules))
	for i, r := range rules {
		headers[i] = fivetuple.Header{SrcIP: r.SrcPrefix.Addr + 1, DstIP: r.DstPrefix.Addr + 1, SrcPort: 1, DstPort: r.DstPort.Lo, Protocol: fivetuple.ProtoTCP}
	}
	for _, name := range []string{"hypercuts", "dcfl"} {
		t.Run(name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.PacketEngine = name
			cfg.RebuildAfterDeltas = -1
			cfg.DegradationThreshold = -1
			c := MustNew(cfg)
			if _, err := c.InstallRuleSet(fivetuple.NewRuleSet("policy", rules)); err != nil {
				t.Fatal(err)
			}
			maxIDs := 0
			for pair := range 10000 {
				r := rules[pair%len(rules)]
				if _, err := c.DeleteRule(r); err != nil {
					t.Fatal(err)
				}
				if _, err := c.InsertRule(r); err != nil {
					t.Fatal(err)
				}
				live := c.RuleCount()
				ids := live + c.view().packet.engine.(engine.IncrementalPacketEngine).UpdateCost().DeadIDs
				if ids > 2*live+64 {
					t.Fatalf("pair %d: %d ids beside %d live rules", pair, ids, live)
				}
				maxIDs = max(maxIDs, ids)
			}
			stats := c.Report().Updates
			t.Logf("at most %d ids, %d rebuilds", maxIDs, stats.Rebuilds)
			if stats.Rebuilds < 2 {
				t.Fatalf("stats = %+v: no refused delta turned into a rebuild", stats)
			}
			for i, h := range headers {
				if got := c.Lookup(h); !got.Matched || got.Priority != rules[i].Priority || got.ActionArg != rules[i].ActionArg {
					t.Fatalf("header %d: %+v, want rule %s", i, got, rules[i])
				}
			}
		})
	}
}
