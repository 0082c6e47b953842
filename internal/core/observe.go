package core

import (
	"sdnpc/internal/cache"
	"sdnpc/internal/engine"
)

// Report is the one-call observability snapshot of a classifier: data-plane
// counters, update-plane counters, cache counters and the memory breakdown, assembled against a single published snapshot, so the
// engine names, rule counts, memory breakdown and update-plane view are
// mutually consistent even when updates race the read. (The atomic counters
// inside Stats and Updates remain individually atomic reads, which
// is inherent to concurrent collection.)
type Report struct {
	// ActiveEngine is the registry name of the engine answering lookups; it
	// is the only engine the snapshot holds.
	ActiveEngine string

	// RulesInstalled is the rule count; RuleCapacity the field engine's Rule
	// Filter slots, 0 (no fixed capacity) under a whole-packet engine.
	RulesInstalled int
	RuleCapacity   int

	// Stats is the data-plane counter snapshot.
	Stats Stats

	// Updates is the update-plane view: delta-vs-rebuild publish counters,
	// current delta debt and the publish-latency histogram.
	Updates UpdateStats

	// Memory is the block-memory breakdown of §III.D.
	Memory MemoryReport

	// LookupCost is the modelled cost of the active lookup stage (Fig. 3
	// phase 2): the engine's cost model — under the field engine the
	// element-wise maximum over its seven field engines. It is the input of
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
		ActiveEngine:   s.name,
		RulesInstalled: s.table.len(),
		Stats:          c.statsSnapshot(),
		Updates:        c.updateStats(s),
		Memory:         c.memoryReport(s),
		LookupCost:     s.engine.Cost(),
	}
	r.RuleCapacity = r.Memory.RuleCapacity
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
