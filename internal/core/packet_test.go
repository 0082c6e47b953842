package core

import (
	"testing"

	"sdnpc/internal/classbench"
	"sdnpc/internal/engine"
	"sdnpc/internal/fivetuple"
)

// TestEveryPacketEngineMatchesReferenceClassifier installs a generated
// filter set under every registered whole-packet engine and replays a trace,
// requiring exact agreement with the linear reference classifier — the
// packet tier must be as correct as the field tier, not just faster.
func TestEveryPacketEngineMatchesReferenceClassifier(t *testing.T) {
	rs := classbench.Generate(classbench.StandardConfig(classbench.ACL, classbench.Size1K))
	trace := classbench.GenerateTrace(rs, classbench.TraceConfig{
		Packets: 3000, Seed: 7, MatchFraction: 0.9, Locality: 0.3,
	})
	names := engine.PacketEngineNames()
	if len(names) < 3 {
		t.Fatalf("expected at least 3 registered packet engines, got %v", names)
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.PacketEngine = name
			c, err := New(cfg)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			if got := c.PacketEngineName(); got != name {
				t.Fatalf("PacketEngineName = %q, want %q", got, name)
			}
			if got := c.ActiveEngineName(); got != name {
				t.Fatalf("ActiveEngineName = %q, want %q", got, name)
			}
			if _, err := c.InstallRuleSet(rs); err != nil {
				t.Fatalf("InstallRuleSet: %v", err)
			}
			for _, h := range trace {
				wantIdx, wantOK := rs.Classify(h)
				got := c.Lookup(h)
				if got.Matched != wantOK || (wantOK && got.Priority != wantIdx) {
					t.Fatalf("Lookup(%s) = (%v, %d), reference (%v, %d)",
						h, got.Matched, got.Priority, wantOK, wantIdx)
				}
				if wantOK {
					want := rs.Rule(wantIdx)
					if got.Action != want.Action || got.ActionArg != want.ActionArg {
						t.Fatalf("Lookup(%s) action = (%v, %d), want (%v, %d)",
							h, got.Action, got.ActionArg, want.Action, want.ActionArg)
					}
				}
				// The packet tier bypasses the label machinery entirely.
				if got.LabelFetches != 0 || got.RuleFilterProbes != 0 || got.Combinations != 0 {
					t.Fatalf("Lookup(%s) touched the field-tier machinery: %+v", h, got)
				}
			}
			report := c.Report().Memory
			if report.PacketEngine != name {
				t.Errorf("MemoryReport.PacketEngine = %q, want %q", report.PacketEngine, name)
			}
			if report.PacketEngineUsedBits <= 0 {
				t.Errorf("MemoryReport.PacketEngineUsedBits = %d, want > 0", report.PacketEngineUsedBits)
			}
			if c.ThroughputGbps(40) <= 0 || c.LookupsPerSecond() <= 0 {
				t.Errorf("non-positive modelled throughput under %s", name)
			}
		})
	}
}

// TestSelectEngineSwitchesTiers drives one loaded classifier through every
// selectable engine of both tiers via the unified SelectEngine, checking
// that the rules survive every switch and the verdicts stay exact.
func TestSelectEngineSwitchesTiers(t *testing.T) {
	rs := classbench.Generate(classbench.StandardConfig(classbench.ACL, classbench.Size1K))
	probe := classbench.GenerateTrace(rs, classbench.TraceConfig{
		Packets: 500, Seed: 13, MatchFraction: 0.95,
	})
	c := MustNew(DefaultConfig())
	if _, err := c.InstallRuleSet(rs); err != nil {
		t.Fatalf("InstallRuleSet: %v", err)
	}
	names := append(engine.SelectableNames(), "mbt")
	for _, name := range names {
		if err := c.SelectEngine(name); err != nil {
			t.Fatalf("SelectEngine(%s): %v", name, err)
		}
		if got := c.ActiveEngineName(); got != name {
			t.Fatalf("after SelectEngine(%s): ActiveEngineName = %q", name, got)
		}
		if c.RuleCount() != rs.Len() {
			t.Fatalf("after switch to %s: %d rules, want %d", name, c.RuleCount(), rs.Len())
		}
		// Only a snapshot the field tier serves carries the combination
		// walk's prefix set, and it is built before the snapshot is published.
		if isPacket, _ := engine.Selectable(name); isPacket {
			if c.view().prefixes.words != nil {
				t.Fatalf("packet engine %s: the snapshot carries a field-tier prefix set", name)
			}
		} else {
			requirePrefixesCoverInstalled(t, c)
		}
		for _, h := range probe {
			wantIdx, wantOK := rs.Classify(h)
			got := c.Lookup(h)
			if got.Matched != wantOK || (wantOK && got.Priority != wantIdx) {
				t.Fatalf("engine %s: Lookup(%s) = (%v, %d), reference (%v, %d)",
					name, h, got.Matched, got.Priority, wantOK, wantIdx)
			}
		}
	}
	// The field tier stayed programmed underneath the packet engines.
	if got := c.IPEngineName(); got != "mbt" {
		t.Errorf("IPEngineName = %q after the cycle, want mbt", got)
	}
	if got := c.PacketEngineName(); got != "" {
		t.Errorf("PacketEngineName = %q after selecting a field engine, want \"\"", got)
	}
}

// TestPacketTierIncrementalUpdates checks the clone-rebuild-swap update path
// of the packet tier: inserts and deletes through the normal update API must
// be reflected by the precomputed structure.
func TestPacketTierIncrementalUpdates(t *testing.T) {
	for _, name := range engine.PacketEngineNames() {
		t.Run(name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.PacketEngine = name
			c := MustNew(cfg)

			h := fivetuple.Header{
				SrcIP: fivetuple.MustParseIPv4("10.1.2.3"), DstIP: fivetuple.MustParseIPv4("192.168.1.1"),
				SrcPort: 1234, DstPort: 443, Protocol: fivetuple.ProtoTCP,
			}
			if r := c.Lookup(h); r.Matched {
				t.Fatalf("empty packet-tier classifier matched %+v", r)
			}

			wide := fivetuple.Wildcard(9, fivetuple.ActionDrop)
			narrow := fivetuple.Rule{
				SrcPrefix: fivetuple.MustParsePrefix("10.1.0.0/16"),
				DstPrefix: fivetuple.MustParsePrefix("192.168.0.0/16"),
				SrcPort:   fivetuple.WildcardPortRange(),
				DstPort:   fivetuple.ExactPort(443),
				Protocol:  fivetuple.ExactProtocol(fivetuple.ProtoTCP),
				Priority:  3, Action: fivetuple.ActionForward, ActionArg: 7,
			}
			// Install low-priority first: the rebuild must order best-first
			// regardless of installation order.
			if _, err := c.InsertRule(wide); err != nil {
				t.Fatalf("InsertRule(wide): %v", err)
			}
			if _, err := c.InsertRule(narrow); err != nil {
				t.Fatalf("InsertRule(narrow): %v", err)
			}
			r := c.Lookup(h)
			if !r.Matched || r.Priority != 3 || r.Action != fivetuple.ActionForward || r.ActionArg != 7 {
				t.Fatalf("after inserts: Lookup = %+v, want the priority-3 forward", r)
			}

			if _, err := c.DeleteRule(narrow); err != nil {
				t.Fatalf("DeleteRule(narrow): %v", err)
			}
			r = c.Lookup(h)
			if !r.Matched || r.Priority != 9 || r.Action != fivetuple.ActionDrop {
				t.Fatalf("after delete: Lookup = %+v, want the priority-9 drop", r)
			}

			// Batched path.
			if _, _, err := c.ApplyUpdates([]UpdateOp{
				{Rule: narrow},
				{Delete: true, Rule: wide},
			}); err != nil {
				t.Fatalf("ApplyUpdates: %v", err)
			}
			r = c.Lookup(h)
			if !r.Matched || r.Priority != 3 {
				t.Fatalf("after batch: Lookup = %+v, want the priority-3 forward", r)
			}
			if c.RuleCount() != 1 {
				t.Fatalf("RuleCount = %d, want 1", c.RuleCount())
			}
		})
	}
}

// TestSelectEngineFailureLeavesServingStateUntouched drives the unified
// switch into a capacity failure and requires the classifier to keep
// serving exactly what it served before: a failed SelectEngine must not
// drop the packet tier or change the field engine.
func TestSelectEngineFailureLeavesServingStateUntouched(t *testing.T) {
	cfg := DefaultConfig()
	// Shrink the base Rule Filter so the bst configuration (base + freed MBT
	// blocks) holds rules that the mbt configuration (base only) cannot.
	cfg.RuleFilterAddressBits = 4
	cfg.IPEngine = "bst"
	cfg.PacketEngine = "hypercuts"
	c := MustNew(cfg)

	mbtCapacity := cfg.RuleCapacityFor("mbt")
	rules := make([]fivetuple.Rule, 0, mbtCapacity+4)
	for i := 0; i < mbtCapacity+4; i++ {
		r := fivetuple.Wildcard(i, fivetuple.ActionForward)
		r.DstPrefix = fivetuple.Prefix{Addr: fivetuple.IPv4(uint32(i) << 16), Len: 16}
		r.ActionArg = uint32(i + 1)
		rules = append(rules, r)
	}
	for _, r := range rules {
		if _, err := c.InsertRule(r); err != nil {
			t.Fatalf("InsertRule(%d): %v", r.Priority, err)
		}
	}

	probe := fivetuple.Header{DstIP: fivetuple.IPv4(3 << 16), SrcPort: 1, DstPort: 2, Protocol: fivetuple.ProtoTCP}
	before := c.Lookup(probe)

	if err := c.SelectEngine("mbt"); err == nil {
		t.Fatal("SelectEngine(mbt) should fail: installed rules exceed the mbt capacity")
	}
	if got := c.ActiveEngineName(); got != "hypercuts" {
		t.Errorf("after failed switch: ActiveEngineName = %q, want hypercuts", got)
	}
	if got := c.IPEngineName(); got != "bst" {
		t.Errorf("after failed switch: IPEngineName = %q, want bst", got)
	}
	after := c.Lookup(probe)
	if after != before {
		t.Errorf("after failed switch: Lookup = %+v, want the pre-switch %+v", after, before)
	}
}

func TestConfigPacketEngineValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PacketEngine = "no-such-engine"
	if _, err := New(cfg); err == nil {
		t.Error("unknown PacketEngine should fail validation")
	}
	cfg.PacketEngine = "mbt"
	if _, err := New(cfg); err == nil {
		t.Error("a field engine name in PacketEngine should fail validation")
	}

	c := MustNew(DefaultConfig())
	if err := c.SelectPacketEngine("segtrie"); err == nil {
		t.Error("SelectPacketEngine should reject field engine names")
	}
	if err := c.SelectEngine("portreg"); err == nil {
		t.Error("SelectEngine should reject non-selectable engines")
	}
	if err := c.SelectPacketEngine(""); err != nil {
		t.Errorf("SelectPacketEngine(\"\") on the field tier should be a no-op: %v", err)
	}
}
