package core

import (
	"errors"
	"reflect"
	"testing"

	"sdnpc/internal/cache"
	"sdnpc/internal/classbench"
	"sdnpc/internal/engine"
	"sdnpc/internal/fieldtier"
	"sdnpc/internal/fivetuple"
)

// TestReportRuleCapacityTracksActiveTier pins rule capacity to the engine
// answering lookups, across tier switches: Report reads the field engine's
// Rule Filter slots, and 0 under a whole-packet engine, which has no fixed
// capacity and takes rules past every Rule Filter. The limit is the field
// engine's alone: a switch back to bst is refused by bst's Rule Filter until
// the rules fit again.
func TestReportRuleCapacityTracksActiveTier(t *testing.T) {
	c, err := New(DefaultConfig())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := c.SelectEngine("bst"); err != nil {
		t.Fatalf("SelectEngine(bst): %v", err)
	}
	bstCap := fieldtier.RuleCapacityFor("bst")
	if bstCap <= fieldtier.RuleFilterSlots {
		t.Fatalf("bst capacity %d should exceed the base %d slots", bstCap, fieldtier.RuleFilterSlots)
	}
	if rep := c.Report(); rep.RuleCapacity != bstCap || rep.Memory.RuleCapacity != bstCap {
		t.Fatalf("field tier RuleCapacity = %d (Memory %d), want %d", rep.RuleCapacity, rep.Memory.RuleCapacity, bstCap)
	}

	// Switch the serving tier to hypercuts: it has no Rule Filter, so no
	// fixed capacity.
	if err := c.SelectEngine("hypercuts"); err != nil {
		t.Fatalf("SelectEngine(hypercuts): %v", err)
	}
	rep := c.Report()
	if rep.ActiveEngine != "hypercuts" {
		t.Fatalf("ActiveEngine = %q, want hypercuts", rep.ActiveEngine)
	}
	if rep.RuleCapacity != 0 {
		t.Errorf("packet tier Report().RuleCapacity = %d, want 0 (no fixed capacity), not %d (field engine)",
			rep.RuleCapacity, bstCap)
	}

	// The packet engine holds one rule more than bst's Rule Filter, and bst
	// refuses the switch back, leaving hypercuts serving every rule.
	rs := capacityRuleSet(bstCap + 1)
	if _, err := c.InstallRuleSet(rs); err != nil {
		t.Fatalf("installing %d rules on hypercuts: %v", rs.Len(), err)
	}
	if err := c.SelectEngine("bst"); !errors.Is(err, ErrRuleFilterFull) {
		t.Fatalf("SelectEngine(bst) over %d rules = %v, want ErrRuleFilterFull", rs.Len(), err)
	}
	if c.ActiveEngineName() != "hypercuts" || c.RuleCount() != rs.Len() {
		t.Fatalf("after the refused switch: %s serving %d rules, want hypercuts serving %d",
			c.ActiveEngineName(), c.RuleCount(), rs.Len())
	}

	// Once the rules fit, switching back to bst restores its capacity.
	if _, err := c.DeleteRule(rs.Rule(bstCap)); err != nil {
		t.Fatalf("DeleteRule: %v", err)
	}
	if err := c.SelectEngine("bst"); err != nil {
		t.Fatalf("SelectEngine(bst) back: %v", err)
	}
	if got := c.Report().RuleCapacity; got != bstCap {
		t.Errorf("after tier drop RuleCapacity = %d, want %d", got, bstCap)
	}
}

// TestReplicatedStatsAggregation pins the lane-counter contract: lookups
// through a worker-pinned Reader must be recorded in that worker's own lane's
// private counters — never a counter another worker writes — and every
// observation surface must still see the aggregate (the lane-drawing Lookup
// path included).
func TestReplicatedStatsAggregation(t *testing.T) {
	forceLanes(t, 4)
	rs := classbench.Generate(classbench.StandardConfig(classbench.ACL, classbench.Size1K))
	trace := classbench.GenerateTrace(rs, classbench.TraceConfig{
		Packets: 300, Seed: 7, MatchFraction: 0.9,
	})
	c, err := New(DefaultConfig())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := c.InstallRuleSet(rs); err != nil {
		t.Fatalf("InstallRuleSet: %v", err)
	}

	var want uint64
	for w := 0; w < 4; w++ {
		r := c.Reader(w)
		for _, h := range trace[:50] {
			r.Lookup(h)
			want++
		}
		r.LookupBatch(trace[50:100])
		want += 50
	}
	c.Lookup(trace[0])
	c.LookupBatch(trace[:25])
	want += 26

	perLane := c.stats.snapshot() // the update-plane counters are not per lane
	for w, ln := range c.lanes.all {
		// 100 pinned lookups each; the 26 unpinned ones land on whichever
		// lane the calling goroutine drew.
		if got := ln.stats.lookups.Load(); got < 100 || got > 126 {
			t.Errorf("lane %d recorded %d lookups, want its worker's 100 (plus at most the 26 unpinned)", w, got)
		}
		ln.stats.addTo(&perLane)
	}
	rep := c.Report()
	if rep.Stats != perLane {
		t.Errorf("Report().Stats = %+v, want the sum over the lanes %+v", rep.Stats, perLane)
	}
	if rep.Stats.Lookups != want {
		t.Errorf("Report().Stats.Lookups = %d, want %d", rep.Stats.Lookups, want)
	}
	if rep.Stats.FieldAccesses == 0 || rep.Stats.Matches == 0 {
		t.Errorf("aggregate lost accounting fields: %+v", rep.Stats)
	}

	c.ResetStats()
	if got := c.Report().Stats.Lookups; got != 0 {
		t.Errorf("after ResetStats Report().Stats.Lookups = %d, want 0", got)
	}
}

// TestReportMatchesAccessors pins the one-call Report against the surviving
// single-value accessors, on both tiers, with the cache on.
func TestReportMatchesAccessors(t *testing.T) {
	rs := classbench.Generate(classbench.StandardConfig(classbench.ACL, classbench.Size1K))
	trace := classbench.GenerateTrace(rs, classbench.TraceConfig{
		Packets: 500, Seed: 3, MatchFraction: 0.9, Locality: 0.3,
	})
	for _, name := range []string{"mbt", "hypercuts"} {
		t.Run(name, func(t *testing.T) {
			forceLanes(t, 1) // Cache is compared against the one lane's own counters
			cfg := DefaultConfig()
			cfg.CacheCapacity = 1024
			c, err := New(cfg)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			if err := c.SelectEngine(name); err != nil {
				t.Fatalf("SelectEngine: %v", err)
			}
			if _, err := c.InstallRuleSet(rs); err != nil {
				t.Fatalf("InstallRuleSet: %v", err)
			}
			for _, h := range trace {
				c.Lookup(h)
			}
			if _, err := c.DeleteRule(rs.Rule(0)); err != nil {
				t.Fatalf("DeleteRule: %v", err)
			}

			rep := c.Report()
			if rep.ActiveEngine != c.ActiveEngineName() {
				t.Errorf("ActiveEngine = %q, want %q", rep.ActiveEngine, c.ActiveEngineName())
			}
			if rep.ActiveEngine != name {
				t.Errorf("ActiveEngine = %q, want the selected %q", rep.ActiveEngine, name)
			}
			if rep.RulesInstalled != c.RuleCount() || rep.RuleCapacity != rep.Memory.RuleCapacity {
				t.Errorf("rules = (%d, %d), want (%d, %d)",
					rep.RulesInstalled, rep.RuleCapacity, c.RuleCount(), rep.Memory.RuleCapacity)
			}
			if rep.Stats.Lookups != uint64(len(trace)) {
				t.Errorf("Stats.Lookups = %d, want %d", rep.Stats.Lookups, len(trace))
			}
			// Two counted publishes: the install and the delete.
			if got := rep.Updates.PublishLatency.Total(); got != 2 {
				t.Errorf("Updates.PublishLatency saw %d publishes, want 2", got)
			}
			// The debt is the published engine's own UpdateCost: the delete
			// delta-applied on hypercuts; the field engine has none.
			cost := c.view().engine.(engine.IncrementalPacketEngine).UpdateCost()
			if rep.Updates.DeltasSinceRebuild != cost.Deltas || rep.Updates.Degradation != cost.Degradation ||
				(name == "hypercuts") != (cost.Deltas == 1) {
				t.Errorf("Updates debt = (%d, %v), want the engine's (%d, %v) with the delete's one delta on hypercuts",
					rep.Updates.DeltasSinceRebuild, rep.Updates.Degradation, cost.Deltas, cost.Degradation)
			}
			if own := c.lanes.all[0].microflow.Stats(); !rep.CacheEnabled || !c.CacheEnabled() || rep.Cache != own {
				t.Errorf("Cache = (%v, %+v), want (true, %+v)", rep.CacheEnabled, rep.Cache, own)
			}
			if rep.Stats.Lookups == 0 || rep.Stats.Deletes == 0 {
				t.Errorf("report shows no traffic or no update: %+v", rep.Stats)
			}
		})
	}
}

// TestReaderMatchesClassifier pins the worker handle against the classifier
// it wraps: Reader(w).Lookup / LookupBatchInto / LookupAllInto return what the
// Classifier calls return, and their accounting lands in the same
// Report().Stats counters — on both tiers, cached, on one lane and on three.
// Report().Cache is the sum over the lanes' private caches; with one lane,
// Classifier.Lookup and Reader(0).Lookup share its cache and its counters.
func TestReaderMatchesClassifier(t *testing.T) {
	rs := classbench.Generate(classbench.StandardConfig(classbench.ACL, classbench.Size1K))
	trace := classbench.GenerateTrace(rs, classbench.TraceConfig{
		Packets: 200, Seed: 11, MatchFraction: 0.9, Locality: 0.3,
	})
	for _, tc := range []struct {
		name   string
		engine string
		lanes  int
	}{
		{"mbt/1-lane", "mbt", 1},
		{"hypercuts/1-lane", "hypercuts", 1},
		{"hypercuts/3-lanes", "hypercuts", 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			forceLanes(t, tc.lanes)
			cfg := DefaultConfig()
			cfg.CacheCapacity = 1024
			c, err := New(cfg)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			if err := c.SelectEngine(tc.engine); err != nil {
				t.Fatalf("SelectEngine: %v", err)
			}
			if _, err := c.InstallRuleSet(rs); err != nil {
				t.Fatalf("InstallRuleSet: %v", err)
			}

			// serve runs the three call shapes over the trace through one
			// handle and returns everything it answered plus the counters the
			// pass left behind.
			type answers struct {
				single []Result
				batch  []Result
				all    [][]ActionRef
				allRes []Result
			}
			serve := func(lookup func(fivetuple.Header) Result,
				batchInto func([]Result, []fivetuple.Header) []Result,
				allInto func([]ActionRef, fivetuple.Header) ([]ActionRef, Result)) (answers, Stats) {
				c.ResetStats()
				var a answers
				for _, h := range trace {
					a.single = append(a.single, lookup(h))
					refs, res := allInto(nil, h)
					a.all = append(a.all, refs)
					a.allRes = append(a.allRes, res)
				}
				a.batch = batchInto(nil, trace)
				return a, c.Report().Stats
			}
			want, wantStats := serve(c.Lookup, c.LookupBatchInto, c.LookupAllInto)
			if wantStats.Lookups != uint64(3*len(trace)) {
				t.Fatalf("classifier pass recorded %d lookups, want %d", wantStats.Lookups, 3*len(trace))
			}
			for w := 0; w < 4; w++ {
				r := c.Reader(w)
				got, gotStats := serve(r.Lookup, r.LookupBatchInto, r.LookupAllInto)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("Reader(%d) answers differ from the Classifier's", w)
				}
				if gotStats != wantStats {
					t.Errorf("Reader(%d) pass left Stats %+v, the Classifier pass %+v", w, gotStats, wantStats)
				}
				if r.Generation() != c.Generation() {
					t.Errorf("Reader(%d).Generation() = %d, want %d", w, r.Generation(), c.Generation())
				}
			}

			if tc.lanes > 1 {
				if got := len(c.lanes.all); got != tc.lanes {
					t.Fatalf("classifier has %d lanes, want %d", got, tc.lanes)
				}
				var sum cache.Stats
				for _, ln := range c.lanes.all {
					own := ln.microflow.Stats()
					sum.Hits += own.Hits
					sum.Misses += own.Misses
					sum.Evictions += own.Evictions
					sum.StaleGenerations += own.StaleGenerations
				}
				if rep := c.Report(); rep.Cache != sum || sum.Hits+sum.Misses == 0 {
					t.Errorf("Report().Cache = %+v, want the lane sum %+v (non-zero)", rep.Cache, sum)
				}
				return
			}
			// One lane: both handles probe the same cache and bump the same
			// counters.
			c.ResetStats()
			c.Lookup(trace[0])
			c.Reader(0).Lookup(trace[0])
			rep, only := c.Report(), c.lanes.all[0]
			if got := only.stats.lookups.Load(); got != 2 || rep.Stats.Lookups != 2 {
				t.Errorf("lane 0 recorded %d lookups, Report %d, want 2 and 2", got, rep.Stats.Lookups)
			}
			if own := only.microflow.Stats(); rep.Cache != own || own.Hits+own.Misses != 2 {
				t.Errorf("Report().Cache = %+v, lane 0's cache %+v, want equal with 2 probes", rep.Cache, own)
			}
		})
	}
}
