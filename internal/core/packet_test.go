package core

import (
	"errors"
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
		// A field-tier snapshot carries the combination walk's prefix set,
		// built before the snapshot is published.
		if isPacket, _ := engine.Selectable(name); !isPacket {
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

// TestSelectEngineFailureLeavesServingStateUntouched drives the switch into
// a capacity failure towards each tier and requires the classifier to keep
// serving exactly what it served before: a failed SelectEngine must not
// change the engine or lose a rule.
func TestSelectEngineFailureLeavesServingStateUntouched(t *testing.T) {
	cfg := DefaultConfig()
	// Shrink the base Rule Filter so the bst configuration (base + freed MBT
	// blocks) holds rules that the mbt and hypercuts configurations (base
	// only) cannot.
	cfg.RuleFilterAddressBits = 4
	cfg.IPEngine = "bst"
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

	for _, name := range []string{"mbt", "hypercuts"} {
		if err := c.SelectEngine(name); !errors.Is(err, ErrRuleFilterFull) {
			t.Fatalf("SelectEngine(%s) = %v, want ErrRuleFilterFull: installed rules exceed its capacity", name, err)
		}
		if got := c.ActiveEngineName(); got != "bst" {
			t.Errorf("after failed switch to %s: ActiveEngineName = %q, want bst", name, got)
		}
		if got := c.RuleCount(); got != len(rules) {
			t.Errorf("after failed switch to %s: %d rules, want %d", name, got, len(rules))
		}
		if after := c.Lookup(probe); after != before {
			t.Errorf("after failed switch to %s: Lookup = %+v, want the pre-switch %+v", name, after, before)
		}
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

	// PacketEngine wins over IPEngine: the classifier serves from the packet
	// engine alone.
	cfg = DefaultConfig()
	cfg.IPEngine = "bst"
	cfg.PacketEngine = "dcfl"
	c := MustNew(cfg)
	if got := c.ActiveEngineName(); got != "dcfl" {
		t.Errorf("ActiveEngineName = %q with both engines configured, want dcfl", got)
	}
	for _, name := range []string{"portreg", ""} {
		if err := c.SelectEngine(name); err == nil {
			t.Errorf("SelectEngine(%q) should reject a non-selectable engine", name)
		}
	}
}

// TestSnapshotHoldsOneTier pins the one-tier invariant: whichever engine is
// selected, the published snapshot holds that engine's tier and nothing of
// the other, and under a packet engine the memory report shows no field-tier
// usage.
func TestSnapshotHoldsOneTier(t *testing.T) {
	rs := classbench.Generate(classbench.StandardConfig(classbench.ACL, classbench.Size1K))
	c := MustNew(DefaultConfig())
	if _, err := c.InstallRuleSet(rs); err != nil {
		t.Fatalf("InstallRuleSet: %v", err)
	}
	for _, name := range engine.SelectableNames() {
		if err := c.SelectEngine(name); err != nil {
			t.Fatalf("SelectEngine(%s): %v", name, err)
		}
		// An update publishes a clone: the invariant must survive it too.
		if _, err := c.DeleteRule(rs.Rule(0)); err != nil {
			t.Fatalf("%s: DeleteRule: %v", name, err)
		}
		if _, err := c.InsertRule(rs.Rule(0)); err != nil {
			t.Fatalf("%s: InsertRule: %v", name, err)
		}
		s, mem := c.view(), c.Report().Memory
		isPacket, _ := engine.Selectable(name)
		if isPacket {
			if s.field != nil || s.packet == nil || s.packet.engine == nil {
				t.Fatalf("%s: snapshot tiers = (field %v, packet %v), want the packet tier alone", name, s.field, s.packet)
			}
			if mem.IPEngineUsedBits != 0 || mem.LabelTableBits != 0 || mem.LabelMemoryUsedBits != 0 || mem.RuleFilterUsedBits != 0 {
				t.Errorf("%s: memory report shows field-tier usage: %+v", name, mem)
			}
			if mem.PacketEngineUsedBits <= 0 {
				t.Errorf("%s: PacketEngineUsedBits = %d, want > 0", name, mem.PacketEngineUsedBits)
			}
			continue
		}
		if s.packet != nil || s.field == nil {
			t.Fatalf("%s: snapshot tiers = (field %v, packet %v), want the field tier alone", name, s.field, s.packet)
		}
		if mem.PacketEngineUsedBits != 0 || mem.IPEngineUsedBits <= 0 || mem.RuleFilterUsedBits <= 0 {
			t.Errorf("%s: memory report = %+v, want field-tier usage only", name, mem)
		}
	}
}

// TestTierSwitchRebuildsFieldTier checks that a field tier built by a switch
// away from a packet engine is exact: after churn under hypercuts (where no
// label or Rule Filter entry exists to keep in step) the rebuilt tier
// classifies like the reference, its prefix set covers every rule, and its
// reference counts are right — deleting every rule empties the label tables
// and the Rule Filter.
func TestTierSwitchRebuildsFieldTier(t *testing.T) {
	rs := classbench.Generate(classbench.StandardConfig(classbench.ACL, classbench.Size1K))
	probe := classbench.GenerateTrace(rs, classbench.TraceConfig{
		Packets: 500, Seed: 13, MatchFraction: 0.95,
	})
	cfg := DefaultConfig()
	cfg.PacketEngine = "hypercuts"
	c := MustNew(cfg)
	if _, err := c.InstallRuleSet(rs); err != nil {
		t.Fatalf("InstallRuleSet: %v", err)
	}
	// Churn: delete a spread of rules and re-insert most of them, so the
	// installation order the rebuild replays differs from priority order.
	live := make(map[int]bool, rs.Len())
	for i := 0; i < rs.Len(); i++ {
		live[i] = true
	}
	for i := 0; i < rs.Len(); i += 7 {
		if _, err := c.DeleteRule(rs.Rule(i)); err != nil {
			t.Fatalf("DeleteRule(%d): %v", i, err)
		}
		live[i] = false
	}
	for i := 0; i < rs.Len(); i += 14 {
		if _, err := c.InsertRule(rs.Rule(i)); err != nil {
			t.Fatalf("InsertRule(%d): %v", i, err)
		}
		live[i] = true
	}
	var rules []fivetuple.Rule
	for i := 0; i < rs.Len(); i++ {
		if live[i] {
			rules = append(rules, rs.Rule(i))
		}
	}
	// ref renumbers priorities to positions; rules keeps the installed ones.
	ref := fivetuple.NewRuleSet("live", rules)
	verify := func(name string) {
		t.Helper()
		if got := c.ActiveEngineName(); got != name {
			t.Fatalf("ActiveEngineName = %q, want %q", got, name)
		}
		for _, h := range probe {
			wantIdx, wantOK := ref.Classify(h)
			got := c.Lookup(h)
			if got.Matched != wantOK || (wantOK && got.Priority != rules[wantIdx].Priority) {
				t.Fatalf("engine %s: Lookup(%s) = (%v, %d), reference (%v, rule %d)",
					name, h, got.Matched, got.Priority, wantOK, wantIdx)
			}
		}
	}

	if err := c.SelectEngine("mbt"); err != nil {
		t.Fatalf("SelectEngine(mbt): %v", err)
	}
	verify("mbt")
	requirePrefixesCoverInstalled(t, c)

	ops := make([]UpdateOp, len(rules))
	for i, r := range rules {
		ops[i] = UpdateOp{Delete: true, Rule: r}
	}
	if _, errs, err := c.ApplyUpdates(ops); err != nil || errors.Join(errs...) != nil {
		t.Fatalf("deleting every rule from the rebuilt tier: %v / %v", err, errors.Join(errs...))
	}
	f := c.view().field
	if c.RuleCount() != 0 || f.labels.TotalLabels() != 0 || f.filter.usedRules() != 0 {
		t.Fatalf("after deleting every rule: %d rules, %d labels, %d Rule Filter entries, want all 0",
			c.RuleCount(), f.labels.TotalLabels(), f.filter.usedRules())
	}

	// Back onto a packet engine with the rules re-installed.
	for i := range ops {
		ops[i].Delete = false
	}
	if _, errs, err := c.ApplyUpdates(ops); err != nil || errors.Join(errs...) != nil {
		t.Fatalf("re-installing the rules: %v / %v", err, errors.Join(errs...))
	}
	if err := c.SelectEngine("dcfl"); err != nil {
		t.Fatalf("SelectEngine(dcfl): %v", err)
	}
	verify("dcfl")
}
