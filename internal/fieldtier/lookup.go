package fieldtier

import (
	"math"
	"sync"

	"sdnpc/internal/engine"
	"sdnpc/internal/fivetuple"
	"sdnpc/internal/label"
)

// Counts are the hardware model's counters of one lookup (Fig. 3).
type Counts struct {
	// FieldAccesses is the number of algorithm-block memory accesses
	// performed by the per-field engines.
	FieldAccesses int
	// LabelFetches is the number of Labels-memory reads (one per non-empty
	// field list).
	LabelFetches int
	// RuleFilterProbes is the number of Rule Filter slots actually read in
	// phase 4 — the work done, where Combinations is the work modelled.
	RuleFilterProbes int
	// Combinations is the modelled phase-3 cost: the size of the label
	// cross-product the header presents (the product of the seven list
	// lengths, capped by the probe budget, the classifier's
	// Config.MaxCrossProductProbes), which is what the hardware pipeline
	// would examine. It is 0 when some dimension matched no label. The
	// software walk visits far fewer combinations; see RuleFilterProbes.
	Combinations int
}

// lookupScratch is the reusable per-lookup working set of the pipeline: one
// label list per dimension. Together with the engines' LookupInto this makes
// the serving path free of per-packet heap allocation — the lists grow to
// the hot rule set's label fan-out during warm-up and are recycled through
// lookupScratchPool thereafter.
type lookupScratch struct {
	lists [label.NumDimensions]label.List
}

var lookupScratchPool = sync.Pool{New: func() any { return new(lookupScratch) }}

// LookupPacket classifies one header through the four phases of Fig. 3,
// with no bound on the Rule Filter slots read: the id of the Highest
// Priority Matching Rule and the field engines' memory accesses.
func (e *Engine) LookupPacket(h fivetuple.Header) (id int, matched bool, accesses int) {
	id, matched, n, _ := e.lookup(h, math.MaxInt)
	return id, matched, n.FieldAccesses
}

// LookupCounted is LookupPacket bounded by the engine's probe budget, with
// every model counter. A header whose walk would read more Rule Filter slots
// than the budget allows is not answered: exhausted is set, and the caller
// answers it by scanning its rules — slower, never wrong.
//
// It performs no writes to the engine, which is what lets any number of
// readers share one prepared engine.
func (e *Engine) LookupCounted(h fivetuple.Header) (id int, matched bool, n Counts, exhausted bool) {
	return e.lookup(h, e.maxProbes)
}

func (e *Engine) lookup(h fivetuple.Header, budget int) (id int, matched bool, n Counts, exhausted bool) {
	// Phase 1: split the header into per-dimension segments and dispatch to
	// the engines selected by IPalg_s. Phase 2: parallel single-field
	// lookups, into a pooled scratch.
	sc := lookupScratchPool.Get().(*lookupScratch)
	defer lookupScratchPool.Put(sc)
	keys := engine.HeaderKeys(h)
	empty := false
	for i, d := range label.Dimensions() {
		n.FieldAccesses += e.engines[d].LookupInto(keys[d], &sc.lists[i])
		if sc.lists[i].Len() > 0 {
			n.LabelFetches++
		} else {
			empty = true
		}
	}
	// Phase 3 + 4: combine the label lists into Rule Filter probes and fetch
	// the HPMR. If any dimension produced no matching label, no rule can
	// match the packet.
	if empty {
		return -1, false, n, false
	}
	id, exhausted = e.combine(&sc.lists, &n, budget)
	return id, id >= 0, n, exhausted
}

// combine finds the HPMR among every combination of matching labels
// without enumerating them. It walks the seven label lists depth-first and
// extends a partial label tuple by one dimension only when some stored
// rule's combination key starts with the extended tuple (the prefix set), so
// the Rule Filter is probed only for tuples that survive all seven
// dimensions — a handful per packet where the full cross-product runs to
// hundreds. The prefix set only prunes: every verdict comes from a Rule
// Filter probe, so a false positive costs a wasted step and the answer is
// exact. (The paper's single probe of the seven list heads, §III.B, misses
// the HPMR whenever it does not hold the head label in every dimension; the
// hpml experiment of cmd/experiments measures how often.)
//
// budget bounds the Rule Filter slots the walk may read; a walk that
// exhausts it stops with no answer.
func (e *Engine) combine(lists *[label.NumDimensions]label.List, n *Counts, budget int) (best int, exhausted bool) {
	// The model's phase-3 cost is the size of the label cross-product the
	// header presents, whatever the software walk skips.
	n.Combinations = 1
	for i := range lists {
		n.Combinations = min(n.Combinations*lists[i].Len(), e.maxProbes)
	}

	// Iterative depth-first walk over stack arrays: next[d] is the next
	// entry of dimension d's list to try and keys[d] the combination key of
	// the labels chosen in dimensions 0..d-1, extended by one shift per
	// level. Every list is non-empty here; lookup returned early otherwise.
	var (
		next         [label.NumDimensions]int
		keys         [label.NumDimensions]label.CombinationKey
		bestPriority int
	)
	best = -1
	dims := label.Dimensions()
	last := len(lists) - 1
	for d := 0; d >= 0; {
		list := &lists[d]
		if next[d] == list.Len() {
			d--
			continue
		}
		pl := list.At(next[d])
		next[d]++
		// The IP-segment lists are ordered by the best priority of any rule
		// using each label, so once a label cannot beat the hit in hand
		// neither can the rest of its list. (Port and protocol lists are
		// ordered by specificity and must be walked whole.)
		if best >= 0 && d < ipSegments && pl.Priority >= bestPriority {
			d--
			continue
		}
		key := keys[d].Append(dims[d], pl.Label)
		if d < last {
			if e.prefixes.has(d+1, key) {
				d++
				next[d], keys[d] = 0, key
			}
			continue
		}
		if n.RuleFilterProbes >= budget {
			return -1, true
		}
		slot, priority, probes := e.filter.lookup(key)
		n.RuleFilterProbes += probes
		if slot >= 0 && (best < 0 || priority < bestPriority) {
			best, bestPriority = slot, priority
		}
	}
	return best, false
}
