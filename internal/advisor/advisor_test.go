package advisor

import (
	"strings"
	"testing"
	"time"

	"sdnpc/internal/cache"
	"sdnpc/internal/classbench"
	"sdnpc/internal/core"
)

// TestAnalyzeDecisionTable pins the signal → profile mapping on synthetic
// Report fixtures: each row is one unambiguous pressure signal and the
// profile (or extra recommendation) the table must produce for it.
func TestAnalyzeDecisionTable(t *testing.T) {
	opts := Options{}.withDefaults()

	tests := []struct {
		name  string
		rep   core.Report
		check func(t *testing.T, sig signals)
	}{
		{
			name: "no cache: speed dominates",
			rep:  core.Report{},
			check: func(t *testing.T, sig signals) {
				if sig.speedWeight != 0.75 {
					t.Fatalf("speedWeight = %.2f, want 0.75", sig.speedWeight)
				}
			},
		},
		{
			name: "low hit rate: speed dominates and the cache is flagged",
			rep: core.Report{
				CacheEnabled: true,
				Cache:        cache.Stats{Hits: 50, Misses: 950},
			},
			check: func(t *testing.T, sig signals) {
				if sig.speedWeight != 0.9 {
					t.Fatalf("speedWeight = %.2f, want 0.9 (clamped)", sig.speedWeight)
				}
				if !hasKind(sig.extra, KindCache) {
					t.Fatalf("expected a %s recommendation, got %v", KindCache, sig.extra)
				}
			},
		},
		{
			name: "high hit rate: memory dominates, no cache flag",
			rep: core.Report{
				CacheEnabled: true,
				Cache:        cache.Stats{Hits: 950, Misses: 50},
			},
			check: func(t *testing.T, sig signals) {
				if sig.speedWeight != 0.1 {
					t.Fatalf("speedWeight = %.2f, want 0.1 (clamped)", sig.speedWeight)
				}
				if sig.memoryWeight != 0.9 {
					t.Fatalf("memoryWeight = %.2f, want 0.9", sig.memoryWeight)
				}
				if hasKind(sig.extra, KindCache) {
					t.Fatalf("hot cache must not be flagged: %v", sig.extra)
				}
			},
		},
		{
			name: "too little traffic: cache signal unmeasured, balanced blend",
			rep: core.Report{
				CacheEnabled: true,
				Cache:        cache.Stats{Hits: 10, Misses: 10},
			},
			check: func(t *testing.T, sig signals) {
				if sig.speedWeight != 0.5 {
					t.Fatalf("speedWeight = %.2f, want 0.5", sig.speedWeight)
				}
			},
		},
		{
			name: "oversized memory overrides the blend",
			rep: core.Report{
				CacheEnabled: true,
				Cache:        cache.Stats{Hits: 50, Misses: 950}, // would say speed...
				Memory:       core.MemoryReport{RuleFilterUsedBits: 5000},
			},
			check: func(t *testing.T, sig signals) {
				if sig.speedWeight != 0.15 {
					t.Fatalf("speedWeight = %.2f, want 0.15 (memory budget override)", sig.speedWeight)
				}
			},
		},
		{
			name: "deep delta debt: tighter rebuild bound",
			rep: core.Report{
				Updates: core.UpdateStats{DeltasSinceRebuild: 500},
			},
			check: func(t *testing.T, sig signals) {
				r, ok := findKind(sig.extra, KindUpdatePolicy)
				if !ok {
					t.Fatalf("expected a %s recommendation, got %v", KindUpdatePolicy, sig.extra)
				}
				if r.RebuildAfterDeltas != 250 {
					t.Fatalf("RebuildAfterDeltas = %d, want 250 (debt/2)", r.RebuildAfterDeltas)
				}
			},
		},
		{
			name: "worrying degradation: tighter degradation trip",
			rep: core.Report{
				Memory: core.MemoryReport{PacketEngineDegradation: 0.6},
			},
			check: func(t *testing.T, sig signals) {
				r, ok := findKind(sig.extra, KindUpdatePolicy)
				if !ok {
					t.Fatalf("expected a %s recommendation, got %v", KindUpdatePolicy, sig.extra)
				}
				if r.DegradationThreshold != worryingDegradation/2 {
					t.Fatalf("DegradationThreshold = %.2f, want %.2f", r.DegradationThreshold, worryingDegradation/2)
				}
			},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			o := opts
			if strings.Contains(tt.name, "oversized") {
				o.MemoryBudgetBits = 1000
			}
			sig := analyze(tt.rep, o)
			if got := sig.speedWeight + sig.memoryWeight; got < 0.999 || got > 1.001 {
				t.Fatalf("weights must sum to 1, got %.3f", got)
			}
			tt.check(t, sig)
		})
	}
}

func hasKind(recs []Recommendation, k Kind) bool {
	_, ok := findKind(recs, k)
	return ok
}

func findKind(recs []Recommendation, k Kind) (Recommendation, bool) {
	for _, r := range recs {
		if r.Kind == k {
			return r, true
		}
	}
	return Recommendation{}, false
}

// TestRankEnginesWeighting pins the ranking blend on fabricated shadow
// results: under a speed-heavy profile the fast-but-fat engine wins; under a
// memory-heavy profile the slow-but-lean one does; and the margin gate keeps
// marginal improvements from recommending a switch at all.
func TestRankEnginesWeighting(t *testing.T) {
	results := []shadowResult{
		{Engine: "fast", NsPerLookup: 100, MemoryBits: 1 << 20, Lookups: 1000},
		{Engine: "lean", NsPerLookup: 400, MemoryBits: 1 << 16, Lookups: 1000},
		{Engine: "active", NsPerLookup: 300, MemoryBits: 1 << 18, Lookups: 1000},
	}
	rep := core.Report{ActiveEngine: "active"}
	opts := Options{}.withDefaults()

	speedy := signals{speedWeight: 0.9, memoryWeight: 0.1}
	if r, ok := rankEngines(results, speedy, rep, opts); !ok || r.Engine != "fast" {
		t.Fatalf("speed-heavy profile: got (%+v, %v), want engine fast", r, ok)
	}

	leanFirst := signals{speedWeight: 0.1, memoryWeight: 0.9}
	if r, ok := rankEngines(results, leanFirst, rep, opts); !ok || r.Engine != "lean" {
		t.Fatalf("memory-heavy profile: got (%+v, %v), want engine lean", r, ok)
	}

	// Margin gate: when the best candidate is barely ahead of the active
	// engine, no switch is recommended.
	close := []shadowResult{
		{Engine: "active", NsPerLookup: 100, MemoryBits: 1 << 18, Lookups: 1000},
		{Engine: "rival", NsPerLookup: 98, MemoryBits: 1 << 18, Lookups: 1000},
	}
	if r, ok := rankEngines(close, speedy, rep, opts); ok {
		t.Fatalf("margin gate: %2.0f%% improvement must not recommend a switch, got %+v", 100*r.Score, r)
	}

	// Already optimal: active engine winning recommends nothing.
	best := []shadowResult{
		{Engine: "active", NsPerLookup: 50, MemoryBits: 1 << 14, Lookups: 1000},
		{Engine: "rival", NsPerLookup: 400, MemoryBits: 1 << 20, Lookups: 1000},
	}
	if r, ok := rankEngines(best, speedy, rep, opts); ok {
		t.Fatalf("active engine already best: want no recommendation, got %+v", r)
	}

	// All candidates errored: nothing to rank.
	dead := []shadowResult{{Engine: "x", Err: errFixture}}
	if _, ok := rankEngines(dead, speedy, rep, opts); ok {
		t.Fatal("all-errored results must not produce a recommendation")
	}
}

var errFixture = &fixtureErr{}

type fixtureErr struct{}

func (*fixtureErr) Error() string { return "fixture" }

// TestAdviseLiveClassifier runs the full Advise flow against a real
// classifier with installed rules and no sampled traffic (synthetic-trace
// path): it must return without error, rank recommendations strongest first,
// and every engine recommendation must be applicable through Apply.
func TestAdviseLiveClassifier(t *testing.T) {
	c, err := core.New(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rs := classbench.Generate(classbench.Config{Class: classbench.ACL, Rules: 500, Seed: 42})
	if _, err := c.InstallRuleSet(rs); err != nil {
		t.Fatal(err)
	}

	recs, err := Advise(c, Options{
		Candidates: []string{"mbt", "bst", "hypercuts"},
		Budget:     30 * time.Millisecond,
		MaxHeaders: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].Score > recs[i-1].Score {
			t.Fatalf("recommendations not sorted by score: %v", recs)
		}
	}
	for _, r := range recs {
		if r.Kind != KindEngine {
			continue
		}
		if err := Apply(c, r); err != nil {
			t.Fatalf("Apply(%v): %v", r, err)
		}
		if got := c.ActiveEngineName(); got != r.Engine {
			t.Fatalf("after Apply active engine = %q, want %q", got, r.Engine)
		}
	}

	// Advisory-only kinds must refuse to apply.
	if err := Apply(c, Recommendation{Kind: KindCache}); err == nil {
		t.Fatal("Apply(KindCache) must error: cache geometry is construction-time")
	}
}

// TestSyntheticTraceMatchesRules verifies the fallback trace is drawn from
// inside the rules' match regions, so shadow benches exercise real matches.
func TestSyntheticTraceMatchesRules(t *testing.T) {
	rs := classbench.Generate(classbench.Config{Class: classbench.ACL, Rules: 200, Seed: 7})
	rules := rs.Rules()
	hs := syntheticTrace(rules, 128)
	if len(hs) != 128 {
		t.Fatalf("len = %d, want capped at 128", len(hs))
	}
	for i, h := range hs {
		if !rules[i].Matches(h) {
			t.Fatalf("header %d does not match its source rule", i)
		}
	}
	if got := syntheticTrace(nil, 128); got != nil {
		t.Fatalf("no rules must yield no trace, got %d headers", len(got))
	}
}
