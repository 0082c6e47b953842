package core

import (
	"sync"
	"sync/atomic"
	"time"

	"sdnpc/internal/cache"
	"sdnpc/internal/fivetuple"
	"sdnpc/internal/label"
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

	// FieldAccesses is the number of algorithm-block memory accesses
	// performed by the per-field engines for this packet.
	FieldAccesses int
	// LabelFetches is the number of Labels-memory reads (one per non-empty
	// field list).
	LabelFetches int
	// RuleFilterProbes is the number of Rule Filter slots actually read in
	// phase 4 — the work done, where Combinations is the work modelled.
	RuleFilterProbes int
	// Combinations is the modelled phase-3 cost: the size of the label
	// cross-product the header presents (the product of the seven list
	// lengths, capped by Config.MaxCrossProductProbes), which is what the
	// hardware pipeline would examine. It is 1 in HPML mode and 0 when some
	// dimension matched no label. The software walk visits far fewer
	// combinations than this; see RuleFilterProbes.
	Combinations int
}

// fieldLookup is the phase-2 result of one dimension.
type fieldLookup struct {
	dim      label.Dimension
	list     *label.List
	accesses int
}

// lookupScratch is the reusable per-lookup working set of the field-tier
// pipeline: one fieldLookup and one label list per dimension, wired together
// once at construction so a pooled scratch never re-points or reallocates.
// Together with the engines' LookupInto this makes the serving path free of
// per-packet heap allocation — the lists grow to the hot rule set's label
// fan-out during warm-up and are recycled through lookupScratchPool
// thereafter.
type lookupScratch struct {
	fields [label.NumDimensions]fieldLookup
	lists  [label.NumDimensions]label.List
}

var lookupScratchPool = sync.Pool{New: func() any {
	sc := &lookupScratch{}
	for i := range sc.fields {
		sc.fields[i].list = &sc.lists[i]
	}
	return sc
}}

// Lookup classifies one packet header through the four pipelined phases of
// Fig. 3 and returns the Highest Priority Matching Rule found by the
// configured combination mode.
//
// Lookup is lock-free and safe to call from any number of goroutines: it
// loads the published snapshot once and traverses only that snapshot, so a
// concurrent update can never hand it a half-programmed data path.
//
// When the microflow cache is configured, a repeated five-tuple is answered
// from the cache before any engine structure — of either tier — is walked.
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
// tier-agnostic: it fronts the field tier and the packet tier with the same
// three lines, and lane-agnostic: each lane passes its own private cache.
func (c *Classifier) serveOn(s *snapshot, mf *cache.Cache[Result], h fivetuple.Header) Result {
	if mf == nil {
		return s.lookup(&c.cfg, h)
	}
	if r, ok := mf.Get(s.gen, h); ok {
		return r
	}
	r := s.lookup(&c.cfg, h)
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
	// FieldAccesses, LabelFetches, RuleFilterProbes and Combinations are the
	// summed per-packet counters.
	FieldAccesses    int
	LabelFetches     int
	RuleFilterProbes int
	Combinations     int
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

// lookup runs the four-phase pipeline against this snapshot. It performs no
// writes to the snapshot — every cost it incurs is returned in the Result —
// which is what lets any number of readers share one published snapshot.
func (s *snapshot) lookup(cfg *Config, h fivetuple.Header) Result {
	// Family fallback: an IPv6 header can only be answered by a structure
	// whose engine declares DimIPv6 — the field tier and the IPv4-only packet
	// engines key on 32-bit addresses and would misclassify it. Those
	// snapshots serve the header honestly by scanning the rule table
	// (correct, O(n)); the wildcard-in-both-families rules still match.
	if h.Family != fivetuple.FamilyIPv4 && !s.servedDims().Has(fivetuple.DimIPv6) {
		return s.lookupFallback(h)
	}

	// Whole-packet tier: one precomputed multi-field structure answers the
	// five-tuple directly, bypassing the per-field engines, the label
	// fetches and the Rule Filter.
	if s.packet != nil {
		return s.lookupPacket(h)
	}

	// Phase 1: split the header into per-dimension segments and dispatch to
	// the engines selected by IPalg_s. Phase 2: parallel single-field
	// lookups, into a pooled scratch so the serving path performs no
	// per-packet heap allocation.
	sc := lookupScratchPool.Get().(*lookupScratch)
	defer lookupScratchPool.Put(sc)
	fields := sc.fields[:]
	s.lookupFieldsInto(h, fields)

	result := Result{}
	for _, f := range fields {
		result.FieldAccesses += f.accesses
		if f.list.Len() > 0 {
			result.LabelFetches++
		}
	}

	// Phase 3 + 4: combine the label lists into Rule Filter probes and fetch
	// the HPMR. If any dimension produced no matching label, no rule can
	// match the packet.
	for _, f := range fields {
		if f.list.Len() == 0 {
			return result
		}
	}

	switch cfg.CombineMode {
	case CombineHPML:
		return s.combineHPML(fields, result)
	default:
		return s.combineExact(cfg, h, fields, result)
	}
}

// lookupPacket serves one header from the whole-packet engine tier. The
// engine returns an index into the snapshot's best-first rule table, so the
// matched rule's action and priority are read straight from it — no label
// fetch, no Rule Filter probe.
func (s *snapshot) lookupPacket(h fivetuple.Header) Result {
	idx, matched, accesses := s.packet.engine.LookupPacket(h)
	result := Result{FieldAccesses: accesses}
	if !matched {
		return result
	}
	r := s.table.at(idx)
	result.Matched = true
	result.Priority = r.Priority
	result.Action = r.Action
	result.ActionArg = r.ActionArg
	return result
}

// headerKeys splits the header into the per-dimension lookup keys of
// phase 1 — pure header-format extraction, independent of which engine
// serves each dimension. Indexed by Dimension (a dense 1-based enum) to
// keep the per-packet hot path allocation-free.
func headerKeys(h fivetuple.Header) [label.NumDimensions + 1]uint32 {
	var keys [label.NumDimensions + 1]uint32
	keys[label.DimSrcIPHigh] = uint32(h.SrcIP.High16())
	keys[label.DimSrcIPLow] = uint32(h.SrcIP.Low16())
	keys[label.DimDstIPHigh] = uint32(h.DstIP.High16())
	keys[label.DimDstIPLow] = uint32(h.DstIP.Low16())
	keys[label.DimSrcPort] = uint32(h.SrcPort)
	keys[label.DimDstPort] = uint32(h.DstPort)
	keys[label.DimProtocol] = uint32(h.Protocol)
	return keys
}

// lookupFieldsInto performs the parallel phase-2 lookups: every dimension's
// key is handed to that dimension's engine through the FieldEngine
// interface, filling the caller's per-dimension slots (one per entry of
// label.Dimensions(), whose lists must be non-nil) without allocating.
func (s *snapshot) lookupFieldsInto(h fivetuple.Header, out []fieldLookup) {
	keys := headerKeys(h)
	for i, d := range label.Dimensions() {
		eng := s.field.engines[d]
		out[i].dim = d
		out[i].accesses = eng.LookupInto(keys[d], out[i].list)
	}
}

// combineHPML implements the paper's phase-3 combination: the first (highest
// priority) label of each list is concatenated into the 68-bit key and the
// Rule Filter is probed once.
func (s *snapshot) combineHPML(fields []fieldLookup, result Result) Result {
	var labels [label.NumDimensions + 1]label.Label
	for i := range fields {
		hpml, _ := fields[i].list.HPML()
		labels[fields[i].dim] = hpml.Label
	}
	result.Combinations = 1
	entry, probes := s.field.filter.lookup(label.PackKeyDims(&labels))
	result.RuleFilterProbes = probes
	if entry != nil {
		result.Matched = true
		result.Priority = entry.priority
		result.Action = entry.action
		result.ActionArg = entry.actionArg
	}
	return result
}

// combineExact finds the HPMR among every combination of matching labels
// without enumerating them. It walks the seven label lists depth-first and
// extends a partial label tuple by one dimension only when some installed
// rule's combination key starts with the extended tuple (snapshot.prefixes),
// so the Rule Filter is probed only for tuples that survive all seven
// dimensions — a handful per packet where the full cross-product runs to
// hundreds. The prefix set only prunes: every verdict comes from a Rule
// Filter probe, so a false positive costs a wasted step and the answer is
// exact.
//
// Config.MaxCrossProductProbes bounds the Rule Filter slots the walk may
// read; a header that exhausts it is answered by the installed-rule scan
// rather than by whatever the walk had found so far.
func (s *snapshot) combineExact(cfg *Config, h fivetuple.Header, fields []fieldLookup, result Result) Result {
	// The model's phase-3 cost is the size of the label cross-product the
	// header presents, whatever the software walk skips.
	result.Combinations = 1
	for i := range fields {
		result.Combinations = min(result.Combinations*fields[i].list.Len(), cfg.MaxCrossProductProbes)
	}

	// Iterative depth-first walk over stack arrays: next[d] is the next
	// entry of dimension d's list to try and keys[d] the combination key of
	// the labels chosen in dimensions 0..d-1, extended by one shift per
	// level. Every list is non-empty here; lookup returned early otherwise.
	var (
		next [label.NumDimensions]int
		keys [label.NumDimensions]label.CombinationKey
		best *ruleEntry
	)
	last := len(fields) - 1
	for d := 0; d >= 0; {
		f := &fields[d]
		if next[d] == f.list.Len() {
			d--
			continue
		}
		pl := f.list.At(next[d])
		next[d]++
		// The IP-segment lists are ordered by the best priority of any rule
		// using each label, so once a label cannot beat the hit in hand
		// neither can the rest of its list. (Port and protocol lists are
		// ordered by specificity and must be walked whole.)
		if best != nil && d < len(ipSegmentDims) && pl.Priority >= best.priority {
			d--
			continue
		}
		key := keys[d].Append(f.dim, pl.Label)
		if d < last {
			if s.field.prefixes.has(d+1, key) {
				d++
				next[d], keys[d] = 0, key
			}
			continue
		}
		if result.RuleFilterProbes >= cfg.MaxCrossProductProbes {
			fb := s.lookupFallback(h)
			result.Matched, result.Priority = fb.Matched, fb.Priority
			result.Action, result.ActionArg = fb.Action, fb.ActionArg
			result.FieldAccesses += fb.FieldAccesses
			return result
		}
		entry, probes := s.field.filter.lookup(key)
		result.RuleFilterProbes += probes
		if entry != nil && (best == nil || entry.priority < best.priority) {
			best = entry
		}
	}

	if best != nil {
		result.Matched = true
		result.Priority = best.priority
		result.Action = best.action
		result.ActionArg = best.actionArg
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

	// Update-plane counters (see UpdateStats): how publishes were served by
	// the packet tier and how long each took wall-clock.
	deltasApplied  atomic.Uint64
	deltaPublishes atomic.Uint64
	rebuilds       atomic.Uint64
	publishLatency [publishLatencyBuckets]atomic.Uint64
}

// recordPublish folds one rule-update publish into the update-plane
// counters: the sync outcome (delta-applied vs rebuilt) and the wall-clock
// latency of the whole clone-mutate-sync-swap.
func (sc *statsCollector) recordPublish(sync publishSync, elapsed time.Duration) {
	switch {
	case sync.rebuilt:
		sc.rebuilds.Add(1)
	case sync.deltas > 0:
		sc.deltaPublishes.Add(1)
		sc.deltasApplied.Add(uint64(sync.deltas))
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

// LookupCounters is the served-request summary of one classifier: how many
// lookups it answered and how many returned a rule. It is the cheap
// per-tenant accounting surface of the serving layer — two counters, not the
// full Stats snapshot.
type LookupCounters struct {
	// Lookups is the number of headers classified (batch lookups count one
	// per header).
	Lookups uint64
	// Matches is the number of those lookups that returned a rule.
	Matches uint64
}

// MatchRate returns the fraction of served lookups that matched a rule.
func (lc LookupCounters) MatchRate() float64 {
	if lc.Lookups == 0 {
		return 0
	}
	return float64(lc.Matches) / float64(lc.Lookups)
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
