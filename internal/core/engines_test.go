package core

import (
	"testing"

	"sdnpc/internal/classbench"
	"sdnpc/internal/engine"
)

// TestEveryIPEngineMatchesReferenceClassifier installs a generated filter
// set under every registered IP engine and replays a trace, requiring the
// exact combination walk to agree with the linear reference classifier —
// HPMR correctness is engine-independent.
func TestEveryIPEngineMatchesReferenceClassifier(t *testing.T) {
	rs := classbench.Generate(classbench.StandardConfig(classbench.ACL, classbench.Size1K))
	trace := classbench.GenerateTrace(rs, classbench.TraceConfig{
		Packets: 3000, Seed: 7, MatchFraction: 0.9, Locality: 0.3,
	})
	names := engine.IPEngineNames()
	if len(names) < 4 {
		t.Fatalf("expected at least 4 registered IP engines, got %v", names)
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.IPEngine = name
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
			}
			report := c.Report().Memory
			if report.IPEngine != name {
				t.Errorf("MemoryReport.IPEngine = %q, want %q", report.IPEngine, name)
			}
			if report.IPEngineUsedBits <= 0 {
				t.Errorf("MemoryReport.IPEngineUsedBits = %d, want > 0", report.IPEngineUsedBits)
			}
		})
	}
}

// TestSelectEngineCyclesThroughFieldEngines switches one loaded classifier
// through every registered field engine and back — field tier to field tier
// each time — checking that the rules survive every re-programming.
func TestSelectEngineCyclesThroughFieldEngines(t *testing.T) {
	rs := classbench.Generate(classbench.StandardConfig(classbench.ACL, classbench.Size1K))
	probe := classbench.GenerateTrace(rs, classbench.TraceConfig{
		Packets: 500, Seed: 13, MatchFraction: 0.95,
	})
	c := MustNew(DefaultConfig())
	if _, err := c.InstallRuleSet(rs); err != nil {
		t.Fatalf("InstallRuleSet: %v", err)
	}
	names := append(engine.IPEngineNames(), "mbt")
	for _, name := range names {
		if err := c.SelectEngine(name); err != nil {
			t.Fatalf("SelectEngine(%s): %v", name, err)
		}
		if c.RuleCount() != rs.Len() {
			t.Fatalf("after switch to %s: %d rules, want %d", name, c.RuleCount(), rs.Len())
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

func TestSelectEngineRejectsBadNames(t *testing.T) {
	c := MustNew(DefaultConfig())
	if err := c.SelectEngine("no-such-engine"); err == nil {
		t.Error("unknown engine name should fail")
	}
	if err := c.SelectEngine("portreg"); err == nil {
		t.Error("a non-IP-capable engine should be rejected")
	}
	// Selecting the active engine is a no-op.
	if err := c.SelectEngine("mbt"); err != nil {
		t.Errorf("selecting the active engine: %v", err)
	}
}

func TestConfigIPEngineValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.IPEngine = "no-such-engine"
	if _, err := New(cfg); err == nil {
		t.Error("unknown IPEngine should fail validation")
	}
	cfg.IPEngine = "lut"
	if _, err := New(cfg); err == nil {
		t.Error("non-IP-capable IPEngine should fail validation")
	}
	cfg.IPEngine = ""
	if _, err := New(cfg); err == nil {
		t.Error("a config naming no engine should fail validation")
	}
	cfg.IPEngine = "segtrie"
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if c.ActiveEngineName() != "segtrie" {
		t.Errorf("ActiveEngineName = %q, want %q", c.ActiveEngineName(), "segtrie")
	}
}
