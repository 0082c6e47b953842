package core

import (
	"sync/atomic"
	"time"

	"sdnpc/internal/cache"
	"sdnpc/internal/fieldtier"
	"sdnpc/internal/fivetuple"
)

// Result is the outcome of one lookup.
type Result struct {
	// Matched reports whether a rule matched; the remaining action fields are
	// meaningful only when it is true.
	Matched bool
	// Priority is the priority of the returned rule (the HPMR).
	Priority int
	// Action and ActionArg are the rule's action.
	Action    fivetuple.Action
	ActionArg uint32

	// Counts are the hardware model's counters of the lookup. A whole-packet
	// engine fills only FieldAccesses, with its own memory accesses.
	fieldtier.Counts
}

// Lookup classifies one packet header through the four pipelined phases of
// Fig. 3 and returns the Highest Priority Matching Rule.
//
// Lookup is lock-free and safe to call from any number of goroutines: it
// loads the published snapshot once and traverses only that snapshot, so a
// concurrent update can never hand it a half-programmed data path.
//
// When the microflow cache is configured, a repeated five-tuple is answered
// from the cache before any engine structure is walked.
// Cached verdicts are keyed by the snapshot's generation, so a lookup racing
// a rule update still returns a result consistent with either the pre-update
// or the post-update snapshot, never a cached leftover of a third.
func (c *Classifier) Lookup(h fivetuple.Header) Result {
	r, sl := c.pick()
	result := r.Lookup(h)
	c.lanes.release(sl)
	return result
}

// serveOn answers one header from the given snapshot, through the given
// microflow cache when one is configured (nil skips the cache). A cache hit
// replays the memoised Result of the first lookup of this five-tuple under
// this exact snapshot — including its access counters, which are
// deterministic per (snapshot, header) — so the cached path is
// byte-identical to the uncached one. This is what makes the cache
// engine-agnostic: it fronts every engine with the same three lines, and
// lane-agnostic: each lane passes its own private cache.
func (c *Classifier) serveOn(s *snapshot, mf *cache.Cache[Result], h fivetuple.Header) Result {
	if mf == nil {
		return s.lookup(h)
	}
	if r, ok := mf.Get(s.gen, h); ok {
		return r
	}
	r := s.lookup(h)
	mf.Put(s.gen, h, r)
	return r
}

// LookupBatch classifies a batch of headers against one consistent snapshot
// of the rule set: the published data path is loaded once and every header
// of the batch is classified against it, even if rule updates land midway.
// The per-batch counter aggregation is also cheaper than per-lookup
// recording — one atomic add per counter per batch instead of per packet.
//
// The returned slice has one Result per header, in order. Use
// SummarizeBatch to aggregate the batch's accounting fields.
func (c *Classifier) LookupBatch(hs []fivetuple.Header) []Result {
	return c.LookupBatchInto(nil, hs)
}

// LookupBatchInto is the allocation-free variant of LookupBatch: it reuses
// dst's backing array when its capacity covers the batch (growing it
// otherwise) and returns it resized to one Result per header. A serving
// loop that recycles its result slice across batches performs no per-batch
// heap allocation.
func (c *Classifier) LookupBatchInto(dst []Result, hs []fivetuple.Header) []Result {
	r, sl := c.pick()
	dst = r.LookupBatchInto(dst, hs)
	c.lanes.release(sl)
	return dst
}

// BatchReport aggregates the accounting fields of one batch of lookups —
// the per-batch totals that a per-Result reading would otherwise have to
// re-derive.
type BatchReport struct {
	// Packets is the batch size.
	Packets int
	// Matched is the number of packets that matched some rule.
	Matched int
	// Counts are the summed per-packet counters.
	fieldtier.Counts
}

// MatchRate returns the fraction of the batch that matched a rule.
func (b BatchReport) MatchRate() float64 {
	if b.Packets == 0 {
		return 0
	}
	return float64(b.Matched) / float64(b.Packets)
}

// SummarizeBatch aggregates per-lookup results into batch-level totals.
func SummarizeBatch(results []Result) BatchReport {
	rep := BatchReport{Packets: len(results)}
	for _, r := range results {
		if r.Matched {
			rep.Matched++
		}
		rep.FieldAccesses += r.FieldAccesses
		rep.LabelFetches += r.LabelFetches
		rep.RuleFilterProbes += r.RuleFilterProbes
		rep.Combinations += r.Combinations
	}
	return rep
}

// lookup answers one header from this snapshot's engine. It performs no
// writes to the snapshot — every cost it incurs is returned in the Result —
// which is what lets any number of readers share one published snapshot.
func (s *snapshot) lookup(h fivetuple.Header) Result {
	// Family fallback: an IPv6 header can only be answered by an engine that
	// declares DimIPv6 — the field engine and the IPv4-only packet engines
	// key on 32-bit addresses and would misclassify it. Those snapshots serve
	// the header honestly by scanning the rule table (correct, O(n)); the
	// wildcard-in-both-families rules still match.
	if h.Family != fivetuple.FamilyIPv4 && !s.packetDims.Has(fivetuple.DimIPv6) {
		return s.lookupFallback(h)
	}
	result, id, matched := Result{}, 0, false
	if m := s.modelled; m != nil {
		var exhausted bool
		id, matched, result.Counts, exhausted = m.LookupCounted(h)
		if exhausted {
			// The walk ran out of probe budget: answer from the installed
			// rules rather than from whatever it had found so far.
			fb := s.lookupFallback(h)
			fb.FieldAccesses += result.FieldAccesses
			fb.LabelFetches, fb.RuleFilterProbes, fb.Combinations = result.LabelFetches, result.RuleFilterProbes, result.Combinations
			return fb
		}
	} else {
		id, matched, result.FieldAccesses = s.engine.LookupPacket(h)
	}
	if matched {
		v := s.engine.Verdict(id)
		result.Matched, result.Priority, result.Action, result.ActionArg = true, v.Priority, v.Action, v.ActionArg
	}
	return result
}

// Stats accumulates data-plane counters across lookups and updates. The
// lookup-side fields sum the Result fields of the same names: Combinations
// is the modelled cross-product size, RuleFilterProbes the slots actually
// read.
type Stats struct {
	Lookups          uint64
	Matches          uint64
	FieldAccesses    uint64
	LabelFetches     uint64
	RuleFilterProbes uint64
	Combinations     uint64

	Inserts uint64
	Deletes uint64
}

// AverageFieldAccesses returns the mean per-packet algorithm-block accesses.
func (s Stats) AverageFieldAccesses() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.FieldAccesses) / float64(s.Lookups)
}

// AverageCombinations returns the mean modelled phase-3 combinations per
// packet (the label cross-product size, not the combinations walked).
func (s Stats) AverageCombinations() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Combinations) / float64(s.Lookups)
}

// MatchRate returns the fraction of lookups that returned a rule.
func (s Stats) MatchRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Matches) / float64(s.Lookups)
}

// statsCollector is the update-plane backing store of Stats and
// UpdateStats. The counters are atomic so Report can read them while the
// (single) writer records; the lookup-side counters live with the lanes
// (see laneStats).
type statsCollector struct {
	inserts atomic.Uint64
	deletes atomic.Uint64

	// Update-plane counters (see UpdateStats): how each publish brought the
	// engine in step and how long it took wall-clock.
	deltasApplied  atomic.Uint64
	deltaPublishes atomic.Uint64
	rebuilds       atomic.Uint64
	publishLatency [publishLatencyBuckets]atomic.Uint64
}

// recordPublish folds one rule-update publish into the update-plane
// counters: how the engine was brought in step (deltas applied, or rebuilt)
// and the wall-clock latency of the whole clone-mutate-swap.
func (sc *statsCollector) recordPublish(deltas int, rebuilt bool, elapsed time.Duration) {
	if rebuilt {
		sc.rebuilds.Add(1)
	} else {
		sc.deltaPublishes.Add(1)
		sc.deltasApplied.Add(uint64(deltas))
	}
	sc.publishLatency[latencyBucket(elapsed)].Add(1)
}

// recordUpdates folds one published update — a single rule or a whole
// batch — in at once.
func (sc *statsCollector) recordUpdates(inserts, deletes int) {
	sc.inserts.Add(uint64(inserts))
	sc.deletes.Add(uint64(deletes))
}

func (sc *statsCollector) snapshot() Stats {
	return Stats{
		Inserts: sc.inserts.Load(),
		Deletes: sc.deletes.Load(),
	}
}

func (sc *statsCollector) reset() {
	sc.inserts.Store(0)
	sc.deletes.Store(0)
	sc.deltasApplied.Store(0)
	sc.deltaPublishes.Store(0)
	sc.rebuilds.Store(0)
	for i := range sc.publishLatency {
		sc.publishLatency[i].Store(0)
	}
}

// statsSnapshot folds the update-plane collector and every lane's private
// lookup-side counters into one aggregate Stats. Only observation pays for
// the walk.
func (c *Classifier) statsSnapshot() Stats {
	s := c.stats.snapshot()
	for _, ln := range c.lanes.all {
		ln.stats.addTo(&s)
	}
	return s
}

// ResetStats zeroes the classifier's counters — the update-plane collector
// and every lane's lookup and cache counters — without touching installed
// rules or cached entries.
func (c *Classifier) ResetStats() {
	c.stats.reset()
	for _, ln := range c.lanes.all {
		ln.stats.reset()
		if ln.microflow != nil {
			ln.microflow.ResetStats()
		}
	}
}
