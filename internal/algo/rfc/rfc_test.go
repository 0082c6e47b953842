package rfc

import (
	"testing"

	"sdnpc/internal/classbench"
	"sdnpc/internal/fivetuple"
)

func buildSmall(t *testing.T, class classbench.Class, rules int, seed int64) (*Classifier, *fivetuple.RuleSet) {
	t.Helper()
	rs := classbench.Generate(classbench.Config{Class: class, Rules: rules, Seed: seed})
	c, err := Build(rs)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return c, rs
}

func TestBuildRejectsEmptySet(t *testing.T) {
	if _, err := Build(fivetuple.NewRuleSet("empty", nil)); err == nil {
		t.Error("Build of empty rule set should fail")
	}
}

func TestClassifyAgreesWithReference(t *testing.T) {
	for _, class := range []classbench.Class{classbench.ACL, classbench.FW, classbench.IPC} {
		t.Run(class.String(), func(t *testing.T) {
			c, rs := buildSmall(t, class, 200, 31)
			trace := classbench.GenerateTrace(rs, classbench.TraceConfig{Packets: 500, Seed: 7, MatchFraction: 0.8})
			for _, h := range trace {
				wantIdx, wantOK := rs.Classify(h)
				gotIdx, gotOK, accesses := c.Classify(h)
				if gotOK != wantOK || (wantOK && gotIdx != wantIdx) {
					t.Fatalf("Classify(%s) = (%d,%v), reference (%d,%v)", h, gotIdx, gotOK, wantIdx, wantOK)
				}
				if accesses != 13 {
					t.Fatalf("accesses = %d, want the constant 13 table indexings", accesses)
				}
			}
		})
	}
}

func TestAccessesConstant(t *testing.T) {
	c, _ := buildSmall(t, classbench.ACL, 100, 3)
	if c.AccessesPerLookup() != 13 {
		t.Errorf("AccessesPerLookup() = %d, want 13", c.AccessesPerLookup())
	}
}

func TestMemoryGrowsWithRuleCount(t *testing.T) {
	small, _ := buildSmall(t, classbench.ACL, 100, 5)
	large, _ := buildSmall(t, classbench.ACL, 400, 5)
	if small.MemoryBits() <= 0 {
		t.Fatalf("MemoryBits() = %d, want positive", small.MemoryBits())
	}
	if large.MemoryBits() <= small.MemoryBits() {
		t.Errorf("memory did not grow with the rule count: %d vs %d", large.MemoryBits(), small.MemoryBits())
	}
	// Phase-0 tables alone are 6*64K + 256 entries; memory must exceed that
	// even at one bit per entry.
	if small.MemoryBits() < 6*65536+256 {
		t.Errorf("MemoryBits() = %d, implausibly small", small.MemoryBits())
	}
}

// TestClassifyReturnsThirteenAccesses pins the constant per-packet cost the
// classifier returns: seven phase-0 tables, three + two + one cross tables.
func TestClassifyReturnsThirteenAccesses(t *testing.T) {
	c, rs := buildSmall(t, classbench.ACL, 50, 9)
	trace := classbench.GenerateTrace(rs, classbench.TraceConfig{Packets: 20, Seed: 2, MatchFraction: 1})
	total := 0
	for _, h := range trace {
		_, _, accesses := c.Classify(h)
		total += accesses
	}
	if total != 20*c.AccessesPerLookup() {
		t.Errorf("20 lookups returned %d accesses, want %d", total, 20*c.AccessesPerLookup())
	}
}

func TestNoMatchWithoutDefaultRule(t *testing.T) {
	// A single narrow rule: a far-away header must report no match.
	rules := []fivetuple.Rule{{
		SrcPrefix: fivetuple.MustParsePrefix("10.0.0.0/8"),
		DstPrefix: fivetuple.MustParsePrefix("10.0.0.0/8"),
		SrcPort:   fivetuple.ExactPort(80),
		DstPort:   fivetuple.ExactPort(80),
		Protocol:  fivetuple.ExactProtocol(fivetuple.ProtoTCP),
	}}
	rs := fivetuple.NewRuleSet("one", rules)
	c, err := Build(rs)
	if err != nil {
		t.Fatal(err)
	}
	_, ok, _ := c.Classify(fivetuple.Header{
		SrcIP: fivetuple.MustParseIPv4("192.0.2.1"), DstIP: fivetuple.MustParseIPv4("192.0.2.2"),
		SrcPort: 1, DstPort: 2, Protocol: fivetuple.ProtoUDP,
	})
	if ok {
		t.Error("Classify matched a header outside every rule")
	}
	idx, ok, _ := c.Classify(fivetuple.Header{
		SrcIP: fivetuple.MustParseIPv4("10.1.1.1"), DstIP: fivetuple.MustParseIPv4("10.2.2.2"),
		SrcPort: 80, DstPort: 80, Protocol: fivetuple.ProtoTCP,
	})
	if !ok || idx != 0 {
		t.Errorf("Classify of matching header = (%d, %v), want (0, true)", idx, ok)
	}
}
