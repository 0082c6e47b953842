package core

import (
	"errors"
	"strings"
	"testing"

	"sdnpc/internal/classbench"
	"sdnpc/internal/engine"
	"sdnpc/internal/fieldtier"
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
	// Table VI: 8K rules with the MBT, ~12K with the BST (the freed levels 1
	// and 3 of the four MBT tries hold 3 320 more rules, Fig. 5).
	if got := fieldtier.RuleCapacityFor("mbt"); got != 8192 {
		t.Errorf("MBT rule capacity = %d, want 8192", got)
	}
	if got := fieldtier.RuleCapacityFor("bst"); got != 11512 {
		t.Errorf("BST rule capacity = %d, want 11512", got)
	}
	if fieldtier.ExtraRuleCapacityBST != 3320 {
		t.Errorf("fieldtier.ExtraRuleCapacityBST = %d, want 3320", fieldtier.ExtraRuleCapacityBST)
	}
}

// capacityRuleSet returns n distinct rules every engine can hold: rule i
// matches its own pair of /16 source and destination networks, so no IP
// segment holds more than 128 distinct values and the Rule Filter, not a
// label space, is what fills. Tests install it with one InstallRuleSet to
// reach Table VI's capacities quickly.
func capacityRuleSet(n int) *fivetuple.RuleSet {
	rules := make([]fivetuple.Rule, n)
	for i := range rules {
		r := fivetuple.Wildcard(i, fivetuple.ActionForward)
		r.SrcPrefix = fivetuple.Prefix{Addr: fivetuple.IPv4(uint32(i%128) << 16), Len: 16}
		r.DstPrefix = fivetuple.Prefix{Addr: fivetuple.IPv4(uint32(i/128) << 16), Len: 16}
		r.ActionArg = uint32(i + 1)
		rules[i] = r
	}
	return fivetuple.NewRuleSet("capacity", rules)
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

// ipSegmentDims are the four IP-segment dimensions, whose label lists are
// ordered by rule priority.
var ipSegmentDims = label.Dimensions()[:4]

// fieldHeads runs phase 2 of a lookup on the published field engine and
// returns the head of every dimension's label list — its Highest Priority
// Matching Label — in label.Dimensions() order; ok is false when some
// dimension matched no label.
func fieldHeads(t *testing.T, c *Classifier, h fivetuple.Header) (heads [label.NumDimensions]label.PriorityLabel, ok bool) {
	f := fieldEngine(t, c)
	keys := engine.HeaderKeys(h)
	var list label.List
	for i, d := range label.Dimensions() {
		f.Field(d).LookupInto(keys[d], &list)
		if heads[i], ok = list.HPML(); !ok {
			return heads, false
		}
	}
	return heads, true
}

// requireHeads asserts the head of every dimension's list for the header:
// the label of the want rule's field value and, in the priority-ordered IP
// segments (port and protocol lists are ordered by specificity), that
// value's best rule priority.
func requireHeads(t *testing.T, c *Classifier, h fivetuple.Header, want fivetuple.Rule) {
	t.Helper()
	heads, ok := fieldHeads(t, c, h)
	if !ok {
		t.Fatalf("%s: some dimension matched no label", h)
	}
	labels := fieldEngine(t, c).Labels()
	for i, d := range label.Dimensions() {
		v := engine.RuleValue(d, want)
		lbl, _ := labels.Table(d).Lookup(v)
		if heads[i].Label != lbl {
			t.Errorf("%s: %s list head is label %d, want %d (%s)", h, d, heads[i].Label, lbl, v)
		}
		if best, _ := labels.Table(d).Best(v); i < len(ipSegmentDims) && heads[i].Priority != best {
			t.Errorf("%s: %s list head is at priority %d, want %d (%s)", h, d, heads[i].Priority, best, v)
		}
	}
}

func TestHPMLModeIsSoundAndSingleProbe(t *testing.T) {
	// The paper's single-probe combination (§III.B) concatenates the head
	// label of each dimension's list and probes the Rule Filter once. It can
	// return "no match" or a lower-priority rule when the true HPMR does not
	// hold the head label in every dimension, so nothing serves with it; two
	// properties must nevertheless hold of the lists it reads:
	//
	//  1. every head in the priority-ordered IP segments carries its field
	//     value's best rule priority;
	//  2. soundness: any rule the one probe returns genuinely matches the
	//     packet.
	//
	// The agreement rate with the exact walk is measured and reported by the
	// experiment harness (bench.HPMLAccuracy) rather than asserted here,
	// because it depends on the workload's shadowing structure.
	rs := classbench.Generate(classbench.Config{Class: classbench.ACL, Rules: 300, Seed: 21})
	c := MustNew(DefaultConfig())
	if _, err := c.InstallRuleSet(rs); err != nil {
		t.Fatalf("InstallRuleSet: %v", err)
	}
	f := fieldEngine(t, c)
	// The Rule Filter's best verdict under every stored key: what one probe
	// of a key reads.
	filter := map[label.CombinationKey]fivetuple.Verdict{}
	f.Entries(func(_ int, key label.CombinationKey, v fivetuple.Verdict) {
		if best, ok := filter[key]; !ok || v.Priority < best.Priority {
			filter[key] = v
		}
	})
	trace := classbench.GenerateTrace(rs, classbench.TraceConfig{Packets: 500, Seed: 9, MatchFraction: 0.9})
	hits := 0
	for _, h := range trace {
		heads, ok := fieldHeads(t, c, h)
		if !ok {
			continue
		}
		var labels [label.NumDimensions + 1]label.Label
		for i, d := range label.Dimensions() {
			labels[d] = heads[i].Label
			if i >= len(ipSegmentDims) {
				continue
			}
			v, _ := f.Labels().Table(d).Value(heads[i].Label)
			if best, _ := f.Labels().Table(d).Best(v); heads[i].Priority != best {
				t.Fatalf("%s: %s head %s is at priority %d, its best rule's is %d", h, d, v, heads[i].Priority, best)
			}
		}
		if v, ok := filter[label.PackKeyDims(&labels)]; ok {
			hits++
			if !rs.Rule(v.Priority).Matches(h) {
				t.Fatalf("the single probe returned rule %d which does not match %s", v.Priority, h)
			}
		}
	}
	if hits == 0 {
		t.Error("the single probe never returned a match on a 90%-matching trace")
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
	if got := fieldEngine(t, c).Labels().Table(label.DimDstPort).RefCount(engine.RuleValue(label.DimDstPort, ruleA)); got != 1 {
		t.Errorf("dst port 80 refcount = %d, want 1", got)
	}
	if got := fieldEngine(t, c).Labels().Table(label.DimProtocol).RefCount(engine.RuleValue(label.DimProtocol, ruleA)); got != 2 {
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
	// Deleting rule A releases everything that remains.
	delA, err := c.DeleteRule(ruleA)
	if err != nil {
		t.Fatalf("DeleteRule: %v", err)
	}
	if delA.ReleasedLabels != label.NumDimensions {
		t.Errorf("final delete ReleasedLabels = %d, want %d", delA.ReleasedLabels, label.NumDimensions)
	}
	if c.RuleCount() != 0 || fieldEngine(t, c).Labels().TotalLabels() != 0 {
		t.Errorf("classifier not empty after deleting everything: %d rules, %d labels",
			c.RuleCount(), fieldEngine(t, c).Labels().TotalLabels())
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
	// leave the shared label ordered by the surviving rule's priority, so the
	// head of each list stays its Highest Priority Matching Label.
	c := MustNew(DefaultConfig())
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
	requireHeads(t, c, h, ruleLow)
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
	capMBT := c.Report().RuleCapacity

	if err := c.SelectEngine("bst"); err != nil {
		t.Fatalf("SelectEngine(bst): %v", err)
	}
	if c.ActiveEngineName() != "bst" {
		t.Fatalf("engine after switch = %q, want bst", c.ActiveEngineName())
	}
	if capBST := c.Report().RuleCapacity; capBST <= capMBT {
		t.Errorf("BST capacity %d should exceed MBT capacity %d (Fig. 5 sharing)", capBST, capMBT)
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

func TestMemoryReportBudget(t *testing.T) {
	c := MustNew(DefaultConfig())
	rs := classbench.Generate(classbench.Config{Class: classbench.ACL, Rules: 500, Seed: 4})
	if _, err := c.InstallRuleSet(rs); err != nil {
		t.Fatal(err)
	}
	rep := c.Report()
	report := rep.Memory
	if report.IPEngine != "mbt" || report.IPEngineUsedBits == 0 {
		t.Errorf("IP engine %q uses %d bits, want nonzero MBT usage", report.IPEngine, report.IPEngineUsedBits)
	}
	if report.RuleFilterUsedBits != rs.Len()*fieldtier.DefaultRuleEntryBits {
		t.Errorf("RuleFilterUsedBits = %d, want %d", report.RuleFilterUsedBits, rs.Len()*fieldtier.DefaultRuleEntryBits)
	}
	if rep.RulesInstalled != rs.Len() || rep.RuleCapacity != 8192 {
		t.Errorf("rules %d / capacity %d", rep.RulesInstalled, rep.RuleCapacity)
	}
	if report.TotalUsedBits() <= 0 {
		t.Errorf("TotalUsedBits() = %d, want > 0", report.TotalUsedBits())
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
	c := MustNew(DefaultConfig())
	rs := capacityRuleSet(8192 + 1)
	full := fivetuple.NewRuleSet("full", rs.Rules()[:8192])
	if _, err := c.InstallRuleSet(full); err != nil {
		t.Fatalf("installing the 8192 rules the MBT configuration holds: %v", err)
	}
	if _, err := c.InsertRule(rs.Rule(8192)); !errors.Is(err, ErrRuleFilterFull) {
		t.Errorf("insert past the 8192 slots = %v, want ErrRuleFilterFull", err)
	}
	if c.RuleCount() != 8192 {
		t.Errorf("RuleCount() = %d after failed insert, want 8192", c.RuleCount())
	}
	// Switching to BST raises the capacity and the next insert succeeds.
	if err := c.SelectEngine("bst"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.InsertRule(rs.Rule(8192)); err != nil {
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
	if stats.AverageFieldAccesses() <= 0 || stats.AverageCombinations() <= 0 || stats.MatchRate() <= 0 {
		t.Errorf("derived stats should be positive: %+v", stats)
	}
	c.ResetStats()
	reset := c.Report().Stats
	if reset.Lookups != 0 || reset.Inserts != 0 {
		t.Errorf("stats not reset: %+v", reset)
	}
	empty := Stats{}
	if empty.AverageFieldAccesses() != 0 || empty.AverageCombinations() != 0 || empty.MatchRate() != 0 {
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
