package dcfl

import (
	"testing"

	"sdnpc/internal/classbench"
	"sdnpc/internal/fivetuple"
)

func TestBuildRejectsEmptySet(t *testing.T) {
	if _, err := Build(fivetuple.NewRuleSet("empty", nil)); err == nil {
		t.Error("Build of empty rule set should fail")
	}
}

func TestClassifyAgreesWithReference(t *testing.T) {
	for _, class := range []classbench.Class{classbench.ACL, classbench.FW, classbench.IPC} {
		t.Run(class.String(), func(t *testing.T) {
			rs := classbench.Generate(classbench.Config{Class: class, Rules: 300, Seed: 41})
			c, err := Build(rs)
			if err != nil {
				t.Fatalf("Build: %v", err)
			}
			trace := classbench.GenerateTrace(rs, classbench.TraceConfig{Packets: 600, Seed: 13, MatchFraction: 0.8})
			for _, h := range trace {
				wantIdx, wantOK := rs.Classify(h)
				gotIdx, gotOK, accesses := c.Classify(h)
				if gotOK != wantOK || (wantOK && gotIdx != wantIdx) {
					t.Fatalf("Classify(%s) = (%d,%v), reference (%d,%v)", h, gotIdx, gotOK, wantIdx, wantOK)
				}
				if accesses < 1 {
					t.Fatalf("accesses = %d, want positive", accesses)
				}
			}
		})
	}
}

func TestAccessesStayModerate(t *testing.T) {
	// DCFL's selling point in Table I is a low average number of memory
	// accesses; verify the average stays within a small multiple of the
	// paper's 23.1 on an ACL-style workload.
	rs := classbench.Generate(classbench.Config{Class: classbench.ACL, Rules: 500, Seed: 51})
	c, err := Build(rs)
	if err != nil {
		t.Fatal(err)
	}
	trace := classbench.GenerateTrace(rs, classbench.TraceConfig{Packets: 1000, Seed: 3, MatchFraction: 0.9})
	total := 0
	for _, h := range trace {
		_, _, accesses := c.Classify(h)
		total += accesses
	}
	avg := float64(total) / float64(len(trace))
	if avg <= 0 || avg > 120 {
		t.Errorf("average accesses = %.1f, want a moderate figure", avg)
	}
}

func TestMemoryAccounting(t *testing.T) {
	small := classbench.Generate(classbench.Config{Class: classbench.ACL, Rules: 100, Seed: 6})
	large := classbench.Generate(classbench.Config{Class: classbench.ACL, Rules: 500, Seed: 6})
	cs, err := Build(small)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := Build(large)
	if err != nil {
		t.Fatal(err)
	}
	if cs.MemoryBits() <= 0 || cl.MemoryBits() <= cs.MemoryBits() {
		t.Errorf("memory accounting suspicious: %d vs %d", cs.MemoryBits(), cl.MemoryBits())
	}
}

func TestNoMatchOutsideRules(t *testing.T) {
	rules := []fivetuple.Rule{{
		SrcPrefix: fivetuple.MustParsePrefix("10.0.0.0/8"),
		DstPrefix: fivetuple.MustParsePrefix("10.0.0.0/8"),
		SrcPort:   fivetuple.ExactPort(80),
		DstPort:   fivetuple.ExactPort(80),
		Protocol:  fivetuple.ExactProtocol(fivetuple.ProtoTCP),
	}}
	c, err := Build(fivetuple.NewRuleSet("one", rules))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := c.Classify(fivetuple.Header{Protocol: fivetuple.ProtoUDP}); ok {
		t.Error("Classify matched a header outside every rule")
	}
}
