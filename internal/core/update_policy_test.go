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

// TestRebuildAfterDeltasPolicyPinsK pins the amortisation bound: exactly
// the DefaultRebuildAfterDeltas-th single-rule publish after a build
// rebuilds and resets the delta debt, and the cycle repeats. linear never
// degrades and dcfl's inserts leave no stale entries, so only the bound can
// fire.
func TestRebuildAfterDeltasPolicyPinsK(t *testing.T) {
	const k = DefaultRebuildAfterDeltas
	for _, name := range []string{"linear", "dcfl"} {
		t.Run(name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.PacketEngine = name
			c := MustNew(cfg)
			if _, err := c.InstallRuleSet(fivetuple.NewRuleSet("base", policyRules(k))); err != nil {
				t.Fatal(err)
			}
			// The bulk install of k rules is past the delta budget outright:
			// one rebuild.
			stats := c.Report().Updates
			if stats.Rebuilds != 1 || stats.DeltasApplied != 0 || stats.DeltasSinceRebuild != 0 {
				t.Fatalf("after bulk install: %+v, want exactly one rebuild and no deltas", stats)
			}
			extra := policyRules(2 * k)
			for i := range extra {
				extra[i].Priority = 100 + i
				extra[i].DstPort = fivetuple.ExactPort(uint16(2000 + i))
			}
			var deltas uint64
			for i, r := range extra {
				if _, err := c.InsertRule(r); err != nil {
					t.Fatalf("insert %d: %v", i, err)
				}
				// Publish i+1 of each cycle of k delta-applies until the k-th,
				// which trips the bound: rebuild, debt reset.
				rebuilds, debt := uint64(1+(i+1)/k), (i+1)%k
				if debt != 0 {
					deltas++
				}
				stats := c.Report().Updates
				if stats.Rebuilds != rebuilds || stats.DeltasApplied != deltas || stats.DeltasSinceRebuild != debt {
					t.Fatalf("after single insert %d: rebuilds=%d deltas=%d debt=%d, want %d/%d/%d",
						i, stats.Rebuilds, stats.DeltasApplied, stats.DeltasSinceRebuild, rebuilds, deltas, debt)
				}
			}
			if got := c.Report().Updates.PublishLatency.Total(); got != uint64(1+len(extra)) {
				t.Errorf("PublishLatency.Total() = %d, want %d publishes", got, 1+len(extra))
			}
		})
	}
}

// TestDegradationThresholdTriggersRebuild drives one HyperCuts leaf to
// DefaultDegradationThreshold well within the delta budget and requires the
// tripping publish itself to rebuild and reset the debt.
func TestDegradationThresholdTriggersRebuild(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PacketEngine = "hypercuts"
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

	// Degradation after n overflowing inserts is n/(16+n): inserts 1..15
	// stay below 0.5 and delta-apply; the 16th reaches 16/32 = 0.5 and must
	// rebuild in the same publish.
	for i := 0; i < 16; i++ {
		r := fivetuple.Wildcard(100+i, fivetuple.ActionDrop)
		if _, err := c.InsertRule(r); err != nil {
			t.Fatal(err)
		}
		stats := c.Report().Updates
		if i < 15 {
			if stats.Rebuilds != 1 || stats.DeltasSinceRebuild != i+1 {
				t.Fatalf("insert %d: rebuilds=%d debt=%d, want the delta path", i, stats.Rebuilds, stats.DeltasSinceRebuild)
			}
			if want := float64(i+1) / float64(17+i); stats.Degradation != want {
				t.Fatalf("insert %d: degradation = %v, want %v while drifting", i, stats.Degradation, want)
			}
		} else if stats.Rebuilds != 2 || stats.DeltasSinceRebuild != 0 || stats.Degradation != 0 {
			t.Fatalf("tripping insert: rebuilds=%d debt=%d degradation=%v, want a same-publish rebuild to a clean structure",
				stats.Rebuilds, stats.DeltasSinceRebuild, stats.Degradation)
		}
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

// TestFieldTierPublishesCountAsDeltas pins that the field engine takes every
// update as a delta at the op and never asks for a rebuild: each publish is a
// delta publish, and each appears in the publish-latency histogram.
func TestFieldTierPublishesCountAsDeltas(t *testing.T) {
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
	if stats.Rebuilds != 0 || stats.DeltasApplied != 6 || stats.DeltaPublishes != 6 || stats.DeltasSinceRebuild != 0 {
		t.Fatalf("field-engine stats = %+v, want 6 delta publishes of one delta each, no rebuild and no debt", stats)
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

// TestRetiredIDsStayBounded pins the bound on a packet engine's retired ids
// under churn. Every DefaultRebuildAfterDeltas-th publish rebuilds, which
// renumbers, so 10 000 delete/insert pairs keep the dead ids below that
// bound — inside the engine's own refusal bound of live ids plus 64, which
// the engine-level FuzzIncrementalDeltas drives past — and verdicts still
// match the oracle.
func TestRetiredIDsStayBounded(t *testing.T) {
	rules := policyRules(40)
	headers := make([]fivetuple.Header, len(rules))
	for i, r := range rules {
		headers[i] = fivetuple.Header{SrcIP: r.SrcPrefix.Addr + 1, DstIP: r.DstPrefix.Addr + 1, SrcPort: 1, DstPort: r.DstPort.Lo, Protocol: fivetuple.ProtoTCP}
	}
	const pairs = 10000
	for _, name := range []string{"hypercuts", "dcfl"} {
		t.Run(name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.PacketEngine = name
			c := MustNew(cfg)
			if _, err := c.InstallRuleSet(fivetuple.NewRuleSet("policy", rules)); err != nil {
				t.Fatal(err)
			}
			for pair := range pairs {
				r := rules[pair%len(rules)]
				if _, err := c.DeleteRule(r); err != nil {
					t.Fatal(err)
				}
				if _, err := c.InsertRule(r); err != nil {
					t.Fatal(err)
				}
				if dead := c.view().engine.(engine.IncrementalPacketEngine).UpdateCost().DeadIDs; dead >= DefaultRebuildAfterDeltas {
					t.Fatalf("pair %d: %d dead ids beside %d live rules", pair, dead, c.RuleCount())
				}
			}
			if stats := c.Report().Updates; stats.Rebuilds != 1+2*pairs/DefaultRebuildAfterDeltas {
				t.Fatalf("stats = %+v, want the install plus one rebuild per %d publishes", stats, DefaultRebuildAfterDeltas)
			}
			for i, h := range headers {
				if got := c.Lookup(h); !got.Matched || got.Priority != rules[i].Priority || got.ActionArg != rules[i].ActionArg {
					t.Fatalf("header %d: %+v, want rule %s", i, got, rules[i])
				}
			}
		})
	}
}

// preparingEngine is an incremental packet engine (linear underneath) that
// implements engine.Preparer and counts its Prepare calls, and declines
// every delta while decline is set. It is not registered, so no suite over
// the registry iterates it.
type preparingEngine struct {
	engine.IncrementalPacketEngine
	prepares *int
	decline  *bool
}

func (e *preparingEngine) Prepare() { *e.prepares++ }

func (e *preparingEngine) Clone() engine.PacketEngine {
	return &preparingEngine{e.IncrementalPacketEngine.Clone().(engine.IncrementalPacketEngine), e.prepares, e.decline}
}

func (e *preparingEngine) InsertRule(r fivetuple.Rule) (UpdateReport, error) {
	if *e.decline {
		return UpdateReport{}, fmt.Errorf("declined")
	}
	return e.IncrementalPacketEngine.InsertRule(r)
}

// TestPublishPreparesOnce pins where a publish prepares its engine: once
// after the engine took deltas, and not at all after a rebuild, whose
// Install prepared it already.
func TestPublishPreparesOnce(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PacketEngine = "linear"
	c := MustNew(cfg)
	rules := policyRules(3)
	if _, err := c.InsertRule(rules[0]); err != nil {
		t.Fatal(err)
	}
	var prepares int
	var decline bool
	s := c.view()
	s.setEngine(&preparingEngine{s.engine.(engine.IncrementalPacketEngine), &prepares, &decline})

	if _, err := c.InsertRule(rules[1]); err != nil {
		t.Fatal(err)
	}
	if stats := c.Report().Updates; prepares != 1 || stats.Rebuilds != 0 {
		t.Errorf("a publish after an accepted delta: %d Prepare calls, %d rebuilds; want 1 and 0", prepares, stats.Rebuilds)
	}

	prepares, decline = 0, true
	if _, err := c.InsertRule(rules[2]); err != nil {
		t.Fatal(err)
	}
	if stats := c.Report().Updates; prepares != 0 || stats.Rebuilds != 1 {
		t.Errorf("a publish after a declined delta: %d Prepare calls, %d rebuilds; want 0 and 1", prepares, stats.Rebuilds)
	}
	if got := c.RuleCount(); got != 3 {
		t.Errorf("RuleCount = %d, want 3", got)
	}
}
