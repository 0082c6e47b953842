package hypercuts

import (
	"testing"

	"sdnpc/internal/classbench"
	"sdnpc/internal/fivetuple"
)

func TestConfigValidation(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("DefaultConfig should validate: %v", err)
	}
	bad := []Config{
		{Binth: 0, SpaceFactor: 4, MaxCutsPerNode: 16, MaxDepth: 16},
		{Binth: 8, SpaceFactor: 0, MaxCutsPerNode: 16, MaxDepth: 16},
		{Binth: 8, SpaceFactor: 4, MaxCutsPerNode: 1, MaxDepth: 16},
		{Binth: 8, SpaceFactor: 4, MaxCutsPerNode: 16, MaxDepth: 0},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d should be invalid", i)
		}
	}
	rs := classbench.Generate(classbench.Config{Class: classbench.ACL, Rules: 50, Seed: 1})
	if _, err := Build(rs, bad[0]); err == nil {
		t.Error("Build with an invalid config should fail")
	}
	if _, err := Build(fivetuple.NewRuleSet("empty", nil), DefaultConfig()); err == nil {
		t.Error("Build of an empty rule set should fail")
	}
}

func TestClassifyAgreesWithReference(t *testing.T) {
	for _, class := range []classbench.Class{classbench.ACL, classbench.FW, classbench.IPC} {
		t.Run(class.String(), func(t *testing.T) {
			rs := classbench.Generate(classbench.Config{Class: class, Rules: 300, Seed: 61})
			c, err := Build(rs, DefaultConfig())
			if err != nil {
				t.Fatalf("Build: %v", err)
			}
			trace := classbench.GenerateTrace(rs, classbench.TraceConfig{Packets: 600, Seed: 19, MatchFraction: 0.8})
			for _, h := range trace {
				wantIdx, wantOK := rs.Classify(h)
				gotIdx, gotOK, accesses := c.Classify(h)
				if gotOK != wantOK || (wantOK && gotIdx != wantIdx) {
					t.Fatalf("Classify(%s) = (%d,%v), reference (%d,%v)", h, gotIdx, gotOK, wantIdx, wantOK)
				}
				if accesses < 2 {
					t.Fatalf("accesses = %d, want at least a node and a leaf read", accesses)
				}
			}
		})
	}
}

func TestTreeStructureStatistics(t *testing.T) {
	rs := classbench.Generate(classbench.Config{Class: classbench.ACL, Rules: 400, Seed: 71})
	c, err := Build(rs, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if c.NodeCount() <= 1 {
		t.Errorf("NodeCount() = %d, want a real tree", c.NodeCount())
	}
	if c.LeafCount() < 1 || c.LeafCount() >= c.NodeCount() {
		t.Errorf("LeafCount() = %d of %d nodes", c.LeafCount(), c.NodeCount())
	}
	if c.Depth() < 1 || c.Depth() > DefaultConfig().MaxDepth {
		t.Errorf("Depth() = %d", c.Depth())
	}
	if c.MemoryBits() <= 0 {
		t.Errorf("MemoryBits() = %d", c.MemoryBits())
	}
}

func TestBinthControlsLeafSizeAndAccesses(t *testing.T) {
	rs := classbench.Generate(classbench.Config{Class: classbench.ACL, Rules: 400, Seed: 81})
	smallLeaf := DefaultConfig()
	smallLeaf.Binth = 4
	bigLeaf := DefaultConfig()
	bigLeaf.Binth = 64

	cSmall, err := Build(rs, smallLeaf)
	if err != nil {
		t.Fatal(err)
	}
	cBig, err := Build(rs, bigLeaf)
	if err != nil {
		t.Fatal(err)
	}
	trace := classbench.GenerateTrace(rs, classbench.TraceConfig{Packets: 500, Seed: 4, MatchFraction: 0.9})
	smallAccesses, bigAccesses := 0, 0
	for _, h := range trace {
		_, _, a := cSmall.Classify(h)
		smallAccesses += a
		_, _, a = cBig.Classify(h)
		bigAccesses += a
	}
	// A larger binth means fewer nodes but longer leaf scans.
	if cBig.NodeCount() >= cSmall.NodeCount() {
		t.Errorf("node counts: binth=64 %d, binth=4 %d; want fewer nodes with the bigger leaf",
			cBig.NodeCount(), cSmall.NodeCount())
	}
	if bigAccesses <= smallAccesses {
		t.Errorf("accesses over %d lookups: binth=64 %d, binth=4 %d; want more accesses with the bigger leaf",
			len(trace), bigAccesses, smallAccesses)
	}
}

// TestClassifyAllScansTheWholeLeaf pins the returned access counts against
// each other: Classify stops at the first matching leaf rule, ClassifyAll
// scans the leaf to its end, so on the same header it never costs less.
func TestClassifyAllScansTheWholeLeaf(t *testing.T) {
	rs := classbench.Generate(classbench.Config{Class: classbench.IPC, Rules: 100, Seed: 91})
	c, err := Build(rs, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	trace := classbench.GenerateTrace(rs, classbench.TraceConfig{Packets: 30, Seed: 5, MatchFraction: 1})
	total := 0
	for _, h := range trace {
		_, _, first := c.Classify(h)
		_, all := c.ClassifyAll(h, nil)
		if all < first {
			t.Errorf("%s: ClassifyAll cost %d accesses, Classify %d", h, all, first)
		}
		total += first
	}
	if total == 0 {
		t.Error("30 matching lookups returned 0 accesses in total")
	}
}

func TestFullyOverlappingRulesTerminate(t *testing.T) {
	// Identical wildcard-heavy rules cannot be separated by cutting; the
	// build must still terminate and classification must return the highest
	// priority one.
	var rules []fivetuple.Rule
	for i := 0; i < 40; i++ {
		rules = append(rules, fivetuple.Wildcard(i, fivetuple.ActionDrop))
	}
	rs := fivetuple.NewRuleSet("overlap", rules)
	c, err := Build(rs, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	idx, ok, _ := c.Classify(fivetuple.Header{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Protocol: 6})
	if !ok || idx != 0 {
		t.Errorf("Classify = (%d, %v), want (0, true)", idx, ok)
	}
}
