package core

import (
	"errors"
	"strings"
	"testing"

	"sdnpc/internal/classbench"
	"sdnpc/internal/fivetuple"
	"sdnpc/internal/label"
)

// smallRuleSet builds a compact filter set exercising shadowing, wildcards,
// shared field values and all match kinds.
func smallRuleSet() *fivetuple.RuleSet {
	rules := []fivetuple.Rule{
		{
			SrcPrefix: fivetuple.MustParsePrefix("10.0.0.0/8"),
			DstPrefix: fivetuple.MustParsePrefix("192.168.1.0/24"),
			SrcPort:   fivetuple.WildcardPortRange(),
			DstPort:   fivetuple.ExactPort(80),
			Protocol:  fivetuple.ExactProtocol(fivetuple.ProtoTCP),
			Action:    fivetuple.ActionForward,
			ActionArg: 1,
		},
		{
			SrcPrefix: fivetuple.MustParsePrefix("10.0.0.0/8"),
			DstPrefix: fivetuple.MustParsePrefix("192.168.0.0/16"),
			SrcPort:   fivetuple.WildcardPortRange(),
			DstPort:   fivetuple.PortRange{Lo: 1024, Hi: 2048},
			Protocol:  fivetuple.ExactProtocol(fivetuple.ProtoUDP),
			Action:    fivetuple.ActionModify,
			ActionArg: 2,
		},
		{
			SrcPrefix: fivetuple.MustParsePrefix("172.16.5.4/32"),
			DstPrefix: fivetuple.MustParsePrefix("0.0.0.0/0"),
			SrcPort:   fivetuple.ExactPort(53),
			DstPort:   fivetuple.ExactPort(53),
			Protocol:  fivetuple.ExactProtocol(fivetuple.ProtoUDP),
			Action:    fivetuple.ActionDrop,
			ActionArg: 3,
		},
		{
			SrcPrefix: fivetuple.MustParsePrefix("0.0.0.0/0"),
			DstPrefix: fivetuple.MustParsePrefix("192.168.1.0/24"),
			SrcPort:   fivetuple.WildcardPortRange(),
			DstPort:   fivetuple.ExactPort(443),
			Protocol:  fivetuple.ExactProtocol(fivetuple.ProtoTCP),
			Action:    fivetuple.ActionForward,
			ActionArg: 4,
		},
		fivetuple.Wildcard(4, fivetuple.ActionController),
	}
	return fivetuple.NewRuleSet("small", rules)
}

func TestConfigValidation(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("DefaultConfig should validate: %v", err)
	}
	invalid := []func(*Config){
		func(c *Config) { c.IPEngine = "" }, // names neither an IP nor a packet engine
		func(c *Config) { c.CombineMode = 0 },
		func(c *Config) { c.ClockHz = 0 },
		func(c *Config) { c.MBTLevel2Entries = 0 },
		func(c *Config) { c.MBTLevel3Entries = 0 },
		func(c *Config) { c.RuleFilterAddressBits = 2 },
		func(c *Config) { c.RuleFilterAddressBits = 30 },
		func(c *Config) { c.RuleEntryBits = 10 },
		func(c *Config) { c.LabelMemoryEntries = 0 },
		func(c *Config) { c.LabelMemoryEntryBits = 1 },
		func(c *Config) { c.PortRegisters = 0 },
		func(c *Config) { c.PortRegisters = 1000 },
		func(c *Config) { c.MaxCrossProductProbes = 0 },
	}
	for i, mutate := range invalid {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d should invalidate the config", i)
		}
		if _, err := New(cfg); err == nil {
			t.Errorf("New with mutation %d should fail", i)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("MustNew with invalid config did not panic")
		}
	}()
	MustNew(Config{})
}

func TestRuleCapacityMatchesTableVI(t *testing.T) {
	cfg := DefaultConfig()
	// Table VI: 8K rules with the MBT, ~12K with the BST (freed MBT blocks
	// hold the extra rules, Fig. 5).
	if got := cfg.RuleCapacityFor("mbt"); got != 8192 {
		t.Errorf("MBT rule capacity = %d, want 8192", got)
	}
	bstCap := cfg.RuleCapacityFor("bst")
	if bstCap < 11000 || bstCap > 13000 {
		t.Errorf("BST rule capacity = %d, want ~12K", bstCap)
	}
	if cfg.ExtraRuleCapacityBST() != bstCap-8192 {
		t.Errorf("ExtraRuleCapacityBST() inconsistent: %d vs %d", cfg.ExtraRuleCapacityBST(), bstCap-8192)
	}
}

func TestCombineModeString(t *testing.T) {
	if CombineHPML.String() != "hpml" || CombineCrossProduct.String() != "cross-product" {
		t.Errorf("mode names: %q, %q", CombineHPML, CombineCrossProduct)
	}
	if CombineMode(9).String() == "" {
		t.Error("unknown mode should still render")
	}
}

func TestInsertAndLookupSmallSet(t *testing.T) {
	for _, alg := range []string{"mbt", "bst"} {
		t.Run(strings.ToUpper(alg), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.IPEngine = alg
			c := MustNew(cfg)
			rs := smallRuleSet()
			if _, err := c.InstallRuleSet(rs); err != nil {
				t.Fatalf("InstallRuleSet: %v", err)
			}
			if c.RuleCount() != rs.Len() {
				t.Fatalf("RuleCount() = %d, want %d", c.RuleCount(), rs.Len())
			}
			headers := classbench.GenerateTrace(rs, classbench.TraceConfig{Packets: 300, Seed: 3, MatchFraction: 0.9})
			for _, h := range headers {
				wantIdx, wantOK := rs.Classify(h)
				got := c.Lookup(h)
				if got.Matched != wantOK {
					t.Fatalf("Lookup(%s) matched=%v, reference=%v", h, got.Matched, wantOK)
				}
				if wantOK && got.Priority != wantIdx {
					t.Fatalf("Lookup(%s) priority=%d, reference=%d", h, got.Priority, wantIdx)
				}
				if wantOK && got.Action != rs.Rule(wantIdx).Action {
					t.Fatalf("Lookup(%s) action=%v, reference=%v", h, got.Action, rs.Rule(wantIdx).Action)
				}
			}
		})
	}
}

func TestLookupAgainstReferenceOnGeneratedFilterSets(t *testing.T) {
	// The cross-product combination must agree with the linear reference
	// classifier on every packet, for every filter-set family and both IP
	// algorithms.
	for _, class := range []classbench.Class{classbench.ACL, classbench.FW, classbench.IPC} {
		for _, alg := range []string{"mbt", "bst"} {
			t.Run(class.String()+"/"+strings.ToUpper(alg), func(t *testing.T) {
				rs := classbench.Generate(classbench.Config{Class: class, Rules: 300, Seed: 17})
				cfg := DefaultConfig()
				cfg.IPEngine = alg
				c := MustNew(cfg)
				if _, err := c.InstallRuleSet(rs); err != nil {
					t.Fatalf("InstallRuleSet: %v", err)
				}
				trace := classbench.GenerateTrace(rs, classbench.TraceConfig{Packets: 400, Seed: 5, MatchFraction: 0.8})
				for _, h := range trace {
					wantIdx, wantOK := rs.Classify(h)
					got := c.Lookup(h)
					if got.Matched != wantOK || (wantOK && got.Priority != wantIdx) {
						t.Fatalf("Lookup(%s) = (%v, %d), reference = (%v, %d)",
							h, got.Matched, got.Priority, wantOK, wantIdx)
					}
				}
			})
		}
	}
}

func TestHPMLModeIsSoundAndSingleProbe(t *testing.T) {
	// The paper's single-probe combination (§III.B) concatenates only the
	// first-position label of each dimension, so it can return "no match" or
	// a lower-priority rule when the true HPMR does not hold the HPML in
	// every dimension. Two properties must nevertheless hold:
	//
	//  1. soundness: any rule it does return genuinely matches the packet;
	//  2. cost: it examines exactly one combination per lookup.
	//
	// The agreement rate with the exact (cross-product) mode is measured and
	// reported by the experiment harness (EXPERIMENTS.md) rather than
	// asserted here, because it depends on the workload's shadowing
	// structure.
	rs := classbench.Generate(classbench.Config{Class: classbench.ACL, Rules: 300, Seed: 21})
	cfg := DefaultConfig()
	cfg.CombineMode = CombineHPML
	c := MustNew(cfg)
	if _, err := c.InstallRuleSet(rs); err != nil {
		t.Fatalf("InstallRuleSet: %v", err)
	}
	trace := classbench.GenerateTrace(rs, classbench.TraceConfig{Packets: 500, Seed: 9, MatchFraction: 0.9})
	hits := 0
	for _, h := range trace {
		got := c.Lookup(h)
		if got.Combinations != 1 {
			t.Fatalf("HPML mode examined %d combinations, want exactly 1", got.Combinations)
		}
		if got.Matched {
			hits++
			if !rs.Rule(got.Priority).Matches(h) {
				t.Fatalf("HPML mode returned rule %d which does not match %s", got.Priority, h)
			}
		}
	}
	if hits == 0 {
		t.Error("HPML mode never returned a match on a 90%-matching trace")
	}
}

func TestUpdateReportFollowsFigure4(t *testing.T) {
	c := MustNew(DefaultConfig())
	ruleA := fivetuple.Rule{
		SrcPrefix: fivetuple.MustParsePrefix("10.0.0.0/8"),
		DstPrefix: fivetuple.MustParsePrefix("192.168.1.0/24"),
		SrcPort:   fivetuple.WildcardPortRange(),
		DstPort:   fivetuple.ExactPort(80),
		Protocol:  fivetuple.ExactProtocol(fivetuple.ProtoTCP),
		Priority:  0,
	}
	repA, err := c.InsertRule(ruleA)
	if err != nil {
		t.Fatalf("InsertRule: %v", err)
	}
	// Every dimension of the first rule is unseen: 7 new labels.
	if repA.NewLabels != label.NumDimensions {
		t.Errorf("first rule NewLabels = %d, want %d", repA.NewLabels, label.NumDimensions)
	}
	if repA.ClockCycles != 3 {
		t.Errorf("ClockCycles = %d, want 3 (2 upload + 1 hash, §V.A)", repA.ClockCycles)
	}
	if repA.EngineWrites == 0 || repA.RuleFilterProbes == 0 {
		t.Errorf("report = %+v, want engine writes and filter probes", repA)
	}

	// A second rule sharing every field value except the destination port
	// creates exactly one new label; the rest only bump counters.
	ruleB := ruleA
	ruleB.DstPort = fivetuple.ExactPort(8080)
	ruleB.Priority = 1
	repB, err := c.InsertRule(ruleB)
	if err != nil {
		t.Fatalf("InsertRule: %v", err)
	}
	if repB.NewLabels != 1 {
		t.Errorf("second rule NewLabels = %d, want 1", repB.NewLabels)
	}
	if got := c.view().field.labels.Table(label.DimDstPort).RefCount(fieldValue(label.DimDstPort, ruleA)); got != 1 {
		t.Errorf("dst port 80 refcount = %d, want 1", got)
	}
	if got := c.view().field.labels.Table(label.DimProtocol).RefCount(fieldValue(label.DimProtocol, ruleA)); got != 2 {
		t.Errorf("protocol refcount = %d, want 2", got)
	}

	// Deleting rule B releases only its unshared label.
	delB, err := c.DeleteRule(ruleB)
	if err != nil {
		t.Fatalf("DeleteRule: %v", err)
	}
	if delB.ReleasedLabels != 1 {
		t.Errorf("delete ReleasedLabels = %d, want 1", delB.ReleasedLabels)
	}
	if delB.ClockCycles != 3 {
		t.Errorf("delete ClockCycles = %d, want 3", delB.ClockCycles)
	}
	// Deleting rule A releases everything that remains.
	delA, err := c.DeleteRule(ruleA)
	if err != nil {
		t.Fatalf("DeleteRule: %v", err)
	}
	if delA.ReleasedLabels != label.NumDimensions {
		t.Errorf("final delete ReleasedLabels = %d, want %d", delA.ReleasedLabels, label.NumDimensions)
	}
	if c.RuleCount() != 0 || c.view().field.labels.TotalLabels() != 0 {
		t.Errorf("classifier not empty after deleting everything: %d rules, %d labels",
			c.RuleCount(), c.view().field.labels.TotalLabels())
	}
	if UpdateCyclesPerRule() != 3 {
		t.Errorf("UpdateCyclesPerRule() = %d, want 3", UpdateCyclesPerRule())
	}
}

func TestDeleteRestoresShadowedRule(t *testing.T) {
	c := MustNew(DefaultConfig())
	rs := smallRuleSet()
	if _, err := c.InstallRuleSet(rs); err != nil {
		t.Fatal(err)
	}
	h := fivetuple.Header{
		SrcIP: fivetuple.MustParseIPv4("10.1.2.3"), DstIP: fivetuple.MustParseIPv4("192.168.1.9"),
		SrcPort: 31000, DstPort: 80, Protocol: fivetuple.ProtoTCP,
	}
	if got := c.Lookup(h); !got.Matched || got.Priority != 0 {
		t.Fatalf("initial lookup = %+v, want rule 0", got)
	}
	// Deleting the HPMR exposes the default rule.
	if _, err := c.DeleteRule(rs.Rule(0)); err != nil {
		t.Fatalf("DeleteRule: %v", err)
	}
	if got := c.Lookup(h); !got.Matched || got.Priority != 4 {
		t.Fatalf("lookup after delete = %+v, want the default rule (4)", got)
	}
	// Deleting an uninstalled rule fails cleanly.
	if _, err := c.DeleteRule(rs.Rule(0)); !errors.Is(err, ErrRuleNotInstalled) {
		t.Errorf("second delete error = %v, want ErrRuleNotInstalled", err)
	}
}

func TestDeleteReprioritisesSharedFieldValues(t *testing.T) {
	// Two rules share a source prefix; deleting the higher-priority one must
	// leave the shared label ordered by the surviving rule's priority so HPML
	// lookups stay consistent.
	cfg := DefaultConfig()
	cfg.CombineMode = CombineHPML
	c := MustNew(cfg)
	shared := fivetuple.MustParsePrefix("10.0.0.0/8")
	ruleHigh := fivetuple.Rule{
		SrcPrefix: shared, DstPrefix: fivetuple.MustParsePrefix("192.168.1.0/24"),
		SrcPort: fivetuple.WildcardPortRange(), DstPort: fivetuple.ExactPort(80),
		Protocol: fivetuple.ExactProtocol(fivetuple.ProtoTCP), Priority: 0, Action: fivetuple.ActionForward,
	}
	ruleLow := fivetuple.Rule{
		SrcPrefix: shared, DstPrefix: fivetuple.MustParsePrefix("192.168.2.0/24"),
		SrcPort: fivetuple.WildcardPortRange(), DstPort: fivetuple.ExactPort(80),
		Protocol: fivetuple.ExactProtocol(fivetuple.ProtoTCP), Priority: 7, Action: fivetuple.ActionDrop,
	}
	if _, err := c.InsertRule(ruleHigh); err != nil {
		t.Fatal(err)
	}
	if _, err := c.InsertRule(ruleLow); err != nil {
		t.Fatal(err)
	}
	if _, err := c.DeleteRule(ruleHigh); err != nil {
		t.Fatal(err)
	}
	h := fivetuple.Header{
		SrcIP: fivetuple.MustParseIPv4("10.9.9.9"), DstIP: fivetuple.MustParseIPv4("192.168.2.7"),
		SrcPort: 1000, DstPort: 80, Protocol: fivetuple.ProtoTCP,
	}
	got := c.Lookup(h)
	if !got.Matched || got.Priority != 7 || got.Action != fivetuple.ActionDrop {
		t.Fatalf("lookup after reprioritising delete = %+v, want rule 7", got)
	}
}

func TestLookupNoMatchWhenDimensionEmpty(t *testing.T) {
	c := MustNew(DefaultConfig())
	// A single TCP-only rule: a GRE packet produces an empty protocol list
	// and must short-circuit to "no match".
	rule := smallRuleSet().Rule(0)
	if _, err := c.InsertRule(rule); err != nil {
		t.Fatal(err)
	}
	h := fivetuple.Header{
		SrcIP: fivetuple.MustParseIPv4("10.1.2.3"), DstIP: fivetuple.MustParseIPv4("192.168.1.9"),
		SrcPort: 31000, DstPort: 80, Protocol: fivetuple.ProtoGRE,
	}
	got := c.Lookup(h)
	if got.Matched {
		t.Fatalf("lookup = %+v, want no match", got)
	}
	if got.RuleFilterProbes != 0 {
		t.Errorf("empty-dimension lookup probed the rule filter %d times, want 0", got.RuleFilterProbes)
	}
}

func TestSelectEngineSwitchesAndReprogrammes(t *testing.T) {
	c := MustNew(DefaultConfig())
	rs := smallRuleSet()
	if _, err := c.InstallRuleSet(rs); err != nil {
		t.Fatal(err)
	}
	if c.ActiveEngineName() != "mbt" {
		t.Fatalf("initial engine = %q, want mbt", c.ActiveEngineName())
	}
	capMBT := c.RuleCapacity()

	if err := c.SelectEngine("bst"); err != nil {
		t.Fatalf("SelectEngine(bst): %v", err)
	}
	if c.ActiveEngineName() != "bst" {
		t.Fatalf("engine after switch = %q, want bst", c.ActiveEngineName())
	}
	if c.RuleCapacity() <= capMBT {
		t.Errorf("BST capacity %d should exceed MBT capacity %d (Fig. 5 sharing)", c.RuleCapacity(), capMBT)
	}
	if c.RuleCount() != rs.Len() {
		t.Errorf("rules after switch = %d, want %d", c.RuleCount(), rs.Len())
	}
	// Lookups remain correct after the switch.
	trace := classbench.GenerateTrace(rs, classbench.TraceConfig{Packets: 200, Seed: 8, MatchFraction: 0.9})
	for _, h := range trace {
		wantIdx, wantOK := rs.Classify(h)
		got := c.Lookup(h)
		if got.Matched != wantOK || (wantOK && got.Priority != wantIdx) {
			t.Fatalf("post-switch lookup(%s) = (%v,%d), reference (%v,%d)", h, got.Matched, got.Priority, wantOK, wantIdx)
		}
	}
	// Switching back also works, and re-selecting is a no-op.
	if err := c.SelectEngine("mbt"); err != nil {
		t.Fatalf("SelectEngine(mbt): %v", err)
	}
	if err := c.SelectEngine("mbt"); err != nil {
		t.Fatalf("re-selecting the active engine: %v", err)
	}
	if err := c.SelectEngine("no-such-engine"); err == nil {
		t.Error("selecting an unknown engine should fail")
	}
}

func TestLatencyModelMatchesFigure3(t *testing.T) {
	rs := smallRuleSet()
	// MBT: 1 dispatch + 6 trie + 1 label fetch + 2 result = 10 cycles.
	cfgMBT := DefaultConfig()
	cfgMBT.CombineMode = CombineHPML
	cMBT := MustNew(cfgMBT)
	if _, err := cMBT.InstallRuleSet(rs); err != nil {
		t.Fatal(err)
	}
	h := fivetuple.Header{
		SrcIP: fivetuple.MustParseIPv4("10.1.2.3"), DstIP: fivetuple.MustParseIPv4("192.168.1.9"),
		SrcPort: 31000, DstPort: 80, Protocol: fivetuple.ProtoTCP,
	}
	if got := cMBT.Lookup(h); got.LatencyCycles != 10 {
		t.Errorf("MBT lookup latency = %d cycles, want 10", got.LatencyCycles)
	}
	// BST: 1 + 16 + 1 + 2 = 20 cycles.
	cfgBST := DefaultConfig()
	cfgBST.IPEngine = "bst"
	cfgBST.CombineMode = CombineHPML
	cBST := MustNew(cfgBST)
	if _, err := cBST.InstallRuleSet(rs); err != nil {
		t.Fatal(err)
	}
	if got := cBST.Lookup(h); got.LatencyCycles != 20 {
		t.Errorf("BST lookup latency = %d cycles, want 20", got.LatencyCycles)
	}
}

func TestThroughputMatchesTableVII(t *testing.T) {
	c := MustNew(DefaultConfig())
	// Table VII: 42.73 Gbps with the MBT, 2.67 Gbps with the BST, for
	// 40-byte packets at 133.51 MHz.
	if got := c.ThroughputGbps(40); got < 42.5 || got > 43.0 {
		t.Errorf("MBT throughput = %.2f Gbps, want ~42.7", got)
	}
	if got := c.LookupsPerSecond(); got < 133e6 || got > 134e6 {
		t.Errorf("MBT lookup rate = %.0f /s, want ~133.51M", got)
	}
	if err := c.SelectEngine("bst"); err != nil {
		t.Fatal(err)
	}
	if got := c.ThroughputGbps(40); got < 2.6 || got > 2.75 {
		t.Errorf("BST throughput = %.2f Gbps, want ~2.67", got)
	}
	// The conclusion's claim: >100 Gbps at 100-byte packets with the MBT.
	if err := c.SelectEngine("mbt"); err != nil {
		t.Fatal(err)
	}
	if got := c.ThroughputGbps(100); got < 100 {
		t.Errorf("MBT throughput at 100-byte packets = %.2f Gbps, want > 100", got)
	}
}

func TestMemoryReportBudget(t *testing.T) {
	c := MustNew(DefaultConfig())
	rs := classbench.Generate(classbench.Config{Class: classbench.ACL, Rules: 500, Seed: 4})
	if _, err := c.InstallRuleSet(rs); err != nil {
		t.Fatal(err)
	}
	report := c.Report().Memory
	// The provisioned block-memory budget reproduces the ~2.1 Mbit figure of
	// Tables V and VII (within 5%).
	total := report.TotalProvisionedBits()
	if total < 2000000 || total > 2200000 {
		t.Errorf("TotalProvisionedBits() = %d, want ~2.1M", total)
	}
	if report.MBTProvisionedBits != 4*(32+1024+3288)*32 {
		t.Errorf("MBTProvisionedBits = %d", report.MBTProvisionedBits)
	}
	if report.IPEngine != "mbt" || report.IPEngineUsedBits == 0 {
		t.Errorf("IP engine %q uses %d bits, want nonzero MBT usage", report.IPEngine, report.IPEngineUsedBits)
	}
	if report.RuleFilterUsedBits != rs.Len()*DefaultRuleEntryBits {
		t.Errorf("RuleFilterUsedBits = %d, want %d", report.RuleFilterUsedBits, rs.Len()*DefaultRuleEntryBits)
	}
	if report.RulesInstalled != rs.Len() || report.RuleCapacity != 8192 {
		t.Errorf("rules %d / capacity %d", report.RulesInstalled, report.RuleCapacity)
	}
	if report.TotalUsedBits() <= 0 || report.TotalUsedBits() >= total {
		t.Errorf("TotalUsedBits() = %d out of range (0,%d)", report.TotalUsedBits(), total)
	}

	// Switching to the BST shrinks the used IP-algorithm storage (Table VI:
	// 543 Kbit vs 49 Kbit on the paper's workload).
	if err := c.SelectEngine("bst"); err != nil {
		t.Fatal(err)
	}
	bstReport := c.Report().Memory
	if bstReport.IPEngine != "bst" || bstReport.IPEngineUsedBits == 0 {
		t.Errorf("post-switch IP engine %q uses %d bits, want nonzero BST usage",
			bstReport.IPEngine, bstReport.IPEngineUsedBits)
	}
	if bstReport.IPEngineUsedBits >= report.IPEngineUsedBits {
		t.Errorf("BST used bits %d should be well below MBT used bits %d",
			bstReport.IPEngineUsedBits, report.IPEngineUsedBits)
	}
}

func TestCapacityEnforcement(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RuleFilterAddressBits = 4 // 16 slots
	c := MustNew(cfg)
	rs := classbench.Generate(classbench.Config{Class: classbench.ACL, Rules: 40, Seed: 2})
	inserted := 0
	var lastErr error
	for _, r := range rs.Rules() {
		if _, err := c.InsertRule(r); err != nil {
			lastErr = err
			break
		}
		inserted++
	}
	if inserted != 16 {
		t.Errorf("inserted %d rules before exhaustion, want 16", inserted)
	}
	if !errors.Is(lastErr, ErrRuleFilterFull) {
		t.Errorf("exhaustion error = %v, want ErrRuleFilterFull", lastErr)
	}
	if c.RuleCount() != 16 {
		t.Errorf("RuleCount() = %d after failed insert, want 16", c.RuleCount())
	}
	// Switching to BST raises the capacity and the next insert succeeds.
	if err := c.SelectEngine("bst"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.InsertRule(rs.Rule(20)); err != nil {
		t.Errorf("insert after switching to BST: %v", err)
	}
}

func TestStatsAccumulation(t *testing.T) {
	c := MustNew(DefaultConfig())
	rs := smallRuleSet()
	if _, err := c.InstallRuleSet(rs); err != nil {
		t.Fatal(err)
	}
	trace := classbench.GenerateTrace(rs, classbench.TraceConfig{Packets: 50, Seed: 1, MatchFraction: 1})
	for _, h := range trace {
		c.Lookup(h)
	}
	stats := c.Report().Stats
	if stats.Lookups != 50 || stats.Matches == 0 {
		t.Errorf("stats = %+v", stats)
	}
	if stats.Inserts != uint64(rs.Len()) {
		t.Errorf("Inserts = %d, want %d", stats.Inserts, rs.Len())
	}
	if stats.UpdateCycles != uint64(3*rs.Len()) {
		t.Errorf("UpdateCycles = %d, want %d", stats.UpdateCycles, 3*rs.Len())
	}
	if stats.AverageFieldAccesses() <= 0 || stats.AverageLatencyCycles() <= 0 ||
		stats.AverageCombinations() <= 0 || stats.MatchRate() <= 0 {
		t.Errorf("derived stats should be positive: %+v", stats)
	}
	c.ResetStats()
	reset := c.Report().Stats
	if reset.Lookups != 0 || reset.Inserts != 0 {
		t.Errorf("stats not reset: %+v", reset)
	}
	empty := Stats{}
	if empty.AverageFieldAccesses() != 0 || empty.AverageLatencyCycles() != 0 ||
		empty.AverageCombinations() != 0 || empty.MatchRate() != 0 {
		t.Error("zero-lookup derived stats should be 0")
	}
}

func TestInstalledRulesSnapshot(t *testing.T) {
	c := MustNew(DefaultConfig())
	rs := smallRuleSet()
	if _, err := c.InstallRuleSet(rs); err != nil {
		t.Fatal(err)
	}
	rules := c.InstalledRules()
	if len(rules) != rs.Len() {
		t.Fatalf("InstalledRules() length = %d, want %d", len(rules), rs.Len())
	}
	rules[0].Priority = 999
	if c.InstalledRules()[0].Priority == 999 {
		t.Error("InstalledRules() exposed internal state")
	}
}

func TestArchSpecAndSynthesis(t *testing.T) {
	c := MustNew(DefaultConfig())
	spec := c.ArchSpec()
	if spec.BlockMemoryBits < 2000000 || spec.BlockMemoryBits > 2200000 {
		t.Errorf("BlockMemoryBits = %d, want ~2.1M", spec.BlockMemoryBits)
	}
	if spec.MemoryBlocks != 3*4+7+1+1 {
		t.Errorf("MemoryBlocks = %d, want 21", spec.MemoryBlocks)
	}
	if spec.PipelineStages != 10 {
		t.Errorf("PipelineStages = %d, want 10", spec.PipelineStages)
	}
	report, err := c.Synthesise()
	if err != nil {
		t.Fatalf("Synthesise: %v", err)
	}
	// Table V: ~4% of the device's 54.5 Mbit block memory.
	if util := report.MemoryUtilisation(); util < 0.03 || util > 0.05 {
		t.Errorf("memory utilisation = %.3f, want ~0.04", util)
	}
	// The cost model is calibrated to land near the published synthesis
	// figures: 79,835 ALMs, 129,273 registers, 133.51 MHz, 500 pins.
	within := func(got, want, tolerance float64) bool {
		return got >= want*(1-tolerance) && got <= want*(1+tolerance)
	}
	if !within(float64(report.LogicALMs), 79835, 0.10) {
		t.Errorf("LogicALMs = %d, want within 10%% of 79835", report.LogicALMs)
	}
	if !within(float64(report.Registers), 129273, 0.10) {
		t.Errorf("Registers = %d, want within 10%% of 129273", report.Registers)
	}
	if !within(report.FmaxMHz, 133.51, 0.10) {
		t.Errorf("FmaxMHz = %.2f, want within 10%% of 133.51", report.FmaxMHz)
	}
	if !within(float64(report.Pins), 500, 0.15) {
		t.Errorf("Pins = %d, want within 15%% of 500", report.Pins)
	}
}

func TestDuplicateRulesWithDifferentPriorities(t *testing.T) {
	// Two rules with identical field values but different priorities occupy
	// distinct Rule Filter slots; lookup must return the better one, and
	// deleting it must expose the other.
	c := MustNew(DefaultConfig())
	base := smallRuleSet().Rule(0)
	dup := base
	dup.Priority = 9
	dup.Action = fivetuple.ActionDrop
	if _, err := c.InsertRule(base); err != nil {
		t.Fatal(err)
	}
	if _, err := c.InsertRule(dup); err != nil {
		t.Fatal(err)
	}
	h := fivetuple.Header{
		SrcIP: fivetuple.MustParseIPv4("10.1.2.3"), DstIP: fivetuple.MustParseIPv4("192.168.1.9"),
		SrcPort: 31000, DstPort: 80, Protocol: fivetuple.ProtoTCP,
	}
	if got := c.Lookup(h); !got.Matched || got.Priority != 0 {
		t.Fatalf("lookup = %+v, want priority 0", got)
	}
	if _, err := c.DeleteRule(base); err != nil {
		t.Fatal(err)
	}
	if got := c.Lookup(h); !got.Matched || got.Priority != 9 || got.Action != fivetuple.ActionDrop {
		t.Fatalf("lookup after delete = %+v, want the duplicate at priority 9", got)
	}
}
