package core

import (
	"sdnpc/internal/cache"
	"sdnpc/internal/engine"
)

// Report is the one-call observability snapshot of a classifier: data-plane
// counters, served-request summary, update-plane counters, cache counters and
// the memory breakdown, assembled against a single published snapshot, so the
// engine names, rule counts, memory breakdown and update-plane view are
// mutually consistent even when updates race the read. (The atomic counters
// inside Stats, Lookups and Updates remain individually atomic reads, which
// is inherent to concurrent collection.)
type Report struct {
	// ActiveEngine is the registry name of the engine answering lookups, of
	// either tier; it is the only engine the snapshot holds.
	ActiveEngine string

	// RulesInstalled and RuleCapacity describe the rule table under the
	// current engine selection.
	RulesInstalled int
	RuleCapacity   int

	// Lookups is the cheap served-request summary (lookups answered,
	// matches returned); Stats is the full data-plane counter snapshot.
	Lookups LookupCounters
	Stats   Stats

	// Updates is the update-plane view: delta-vs-rebuild publish counters,
	// current delta debt and the publish-latency histogram.
	Updates UpdateStats

	// Memory is the block-memory breakdown of §III.D.
	Memory MemoryReport

	// LookupCost is the modelled cost of the active lookup stage (Fig. 3
	// phase 2): the packet engine's cost model, or on the field tier the
	// element-wise maximum over the seven field engines. It is the input of
	// the paper's pipeline model in internal/bench; no lookup reads it.
	LookupCost engine.CostModel

	// CacheEnabled reports whether the microflow cache is configured; Cache
	// holds its counters (zero when disabled), summed over every lane's
	// private cache so the aggregate hit rate stays meaningful.
	CacheEnabled bool
	Cache        cache.Stats

	// Generation is the published snapshot's generation — the one every
	// lane serves.
	Generation uint64
}

// Report assembles the full observability snapshot. It loads the published
// snapshot once, so the structural fields (engine names, rule counts, memory
// breakdown, delta debt) are one consistent cut even while updates are in
// flight. It is safe to call from any goroutine.
func (c *Classifier) Report() Report {
	s := c.view()
	r := Report{
		ActiveEngine:   s.activeEngineName(),
		RulesInstalled: s.table.len(),
		RuleCapacity:   c.cfg.RuleCapacityFor(s.activeEngineName()),
		Stats:          c.statsSnapshot(),
		Updates:        c.updateStats(s),
		Memory:         c.memoryReport(s),
		LookupCost:     s.lookupCost(),
	}
	r.Lookups = LookupCounters{Lookups: r.Stats.Lookups, Matches: r.Stats.Matches}
	r.CacheEnabled = c.CacheEnabled()
	r.Generation = s.gen
	for _, ln := range c.lanes.all {
		if ln.microflow != nil {
			cs := ln.microflow.Stats()
			r.Cache.Hits += cs.Hits
			r.Cache.Misses += cs.Misses
			r.Cache.Evictions += cs.Evictions
			r.Cache.StaleGenerations += cs.StaleGenerations
		}
	}
	return r
}
