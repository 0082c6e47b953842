package advisor

import (
	"strconv"
	"strings"
	"testing"

	"sdnpc/internal/cache"
	"sdnpc/internal/classbench"
	"sdnpc/internal/core"
	"sdnpc/internal/engine"
)

// TestAnalyzeDecisionTable pins the signal → profile mapping on synthetic
// Report fixtures: each row is one unambiguous pressure signal and the
// profile the table must produce for it.
func TestAnalyzeDecisionTable(t *testing.T) {
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
			name: "low hit rate: speed dominates",
			rep: core.Report{
				CacheEnabled: true,
				Cache:        cache.Stats{Hits: 50, Misses: 950},
			},
			check: func(t *testing.T, sig signals) {
				if sig.speedWeight != 0.9 {
					t.Fatalf("speedWeight = %.2f, want 0.9 (clamped)", sig.speedWeight)
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
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			sig := analyze(tt.rep)
			if got := sig.speedWeight + sig.memoryWeight; got < 0.999 || got > 1.001 {
				t.Fatalf("weights must sum to 1, got %.3f", got)
			}
			tt.check(t, sig)
		})
	}
}

// TestRankEnginesWeighting pins the ranking blend on fabricated shadow
// results: under a speed-heavy profile the fast-but-fat engine wins; under a
// memory-heavy profile the slow-but-lean one does; the margin gate keeps
// marginal improvements from recommending a switch at all; and a winner that
// rebuilds on every update says that update cost was not ranked.
func TestRankEnginesWeighting(t *testing.T) {
	results := []shadowResult{
		{Engine: "fast", NsPerLookup: 100, MemoryBits: 1 << 20, Lookups: 1000},
		{Engine: "lean", NsPerLookup: 400, MemoryBits: 1 << 16, Lookups: 1000},
		{Engine: "active", NsPerLookup: 300, MemoryBits: 1 << 18, Lookups: 1000},
	}
	rep := core.Report{ActiveEngine: "active"}

	speedy := signals{speedWeight: 0.9, memoryWeight: 0.1}
	if r, ok := rankEngines(results, speedy, rep); !ok || r.Engine != "fast" {
		t.Fatalf("speed-heavy profile: got (%+v, %v), want engine fast", r, ok)
	}

	leanFirst := signals{speedWeight: 0.1, memoryWeight: 0.9}
	if r, ok := rankEngines(results, leanFirst, rep); !ok || r.Engine != "lean" {
		t.Fatalf("memory-heavy profile: got (%+v, %v), want engine lean", r, ok)
	}

	// Margin gate: when the best candidate is barely ahead of the active
	// engine, no switch is recommended.
	close := []shadowResult{
		{Engine: "active", NsPerLookup: 100, MemoryBits: 1 << 18, Lookups: 1000},
		{Engine: "rival", NsPerLookup: 98, MemoryBits: 1 << 18, Lookups: 1000},
	}
	if r, ok := rankEngines(close, speedy, rep); ok {
		t.Fatalf("margin gate: %2.0f%% improvement must not recommend a switch, got %+v", 100*r.Score, r)
	}

	// Already optimal: active engine winning recommends nothing.
	best := []shadowResult{
		{Engine: "active", NsPerLookup: 50, MemoryBits: 1 << 14, Lookups: 1000},
		{Engine: "rival", NsPerLookup: 400, MemoryBits: 1 << 20, Lookups: 1000},
	}
	if r, ok := rankEngines(best, speedy, rep); ok {
		t.Fatalf("active engine already best: want no recommendation, got %+v", r)
	}

	// All candidates errored: nothing to rank.
	dead := []shadowResult{{Engine: "x", Err: errFixture}}
	if _, ok := rankEngines(dead, speedy, rep); ok {
		t.Fatal("all-errored results must not produce a recommendation")
	}

	// The ranking never sees update cost, so a whole-packet winner without
	// delta updates carries the caveat; an incremental one does not.
	const caveat = "rebuilds on every rule update; update cost not ranked"
	for winner, want := range map[string]bool{"rfc-full": true, "hypercuts": false, "bst": false} {
		won := []shadowResult{
			{Engine: winner, NsPerLookup: 50, MemoryBits: 1 << 14, Lookups: 1000},
			{Engine: "active", NsPerLookup: 400, MemoryBits: 1 << 20, Lookups: 1000},
		}
		r, ok := rankEngines(won, speedy, rep)
		if !ok || r.Engine != winner {
			t.Fatalf("got (%+v, %v), want engine %s", r, ok, winner)
		}
		if got := strings.HasSuffix(r.Reason, caveat); got != want {
			t.Errorf("%s: reason %q ends with the update-cost caveat = %v, want %v", winner, r.Reason, got, want)
		}
	}
}

var errFixture = &fixtureErr{}

type fixtureErr struct{}

func (*fixtureErr) Error() string { return "fixture" }

// TestAdviseLiveClassifier runs the full Advise flow against a real
// classifier with installed rules and no trace (synthetic-trace path): it
// must return without error, recommend at most one engine, leave the
// classifier exactly as it found it, and refuse a candidate that is not a
// selectable engine instead of dropping it.
func TestAdviseLiveClassifier(t *testing.T) {
	c, err := core.New(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rs := classbench.Generate(classbench.Config{Class: classbench.ACL, Rules: 500, Seed: 42})
	if _, err := c.InstallRuleSet(rs); err != nil {
		t.Fatal(err)
	}
	type state struct {
		gen     uint64
		engine  string
		rules   int
		updates core.UpdateStats
	}
	observe := func() state {
		return state{c.Generation(), c.ActiveEngineName(), c.RuleCount(), c.Report().Updates}
	}
	before := observe()

	recs, err := Advise(c, nil, []string{"mbt", "bst", "hypercuts"})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) > 1 || (len(recs) == 1 && recs[0].Kind != KindEngine) {
		t.Fatalf("recommendations = %v, want at most one engine switch", recs)
	}
	if after := observe(); after != before {
		t.Fatalf("Advise changed the classifier: before %+v, after %+v", before, after)
	}

	for _, bad := range [][]string{{"hypercutz"}, {"mbt", "nope"}, {"lut"}} {
		recs, err := Advise(c, nil, bad)
		if err == nil {
			t.Fatalf("Advise(candidates %v) = %v, want an error", bad, recs)
		}
		unknown := bad[len(bad)-1]
		if !strings.Contains(err.Error(), strconv.Quote(unknown)) {
			t.Errorf("error %q does not name the bad candidate %q", err, unknown)
		}
		for _, name := range engine.SelectableNames() {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("error %q does not list selectable engine %q", err, name)
			}
		}
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
