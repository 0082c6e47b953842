package core

import (
	"sync"

	"sdnpc/internal/engine"
	"sdnpc/internal/fivetuple"
)

// ActionRef is one entry of a multi-action verdict: the action of one
// matching rule, in strict priority order. Terminal marks a terminating rule
// — the entry that ends the collection; every entry before it came from a
// non-terminating rule.
type ActionRef struct {
	Priority  int
	Action    fivetuple.Action
	ActionArg uint32
	// Terminal reports whether this rule terminates evaluation. A verdict
	// list contains zero or more non-terminal entries followed by at most one
	// terminal entry.
	Terminal bool
}

// multiScratchPool recycles the rule-index scratch LookupAll hands to the
// engine's LookupPacketAll, so the multi-action serving path performs no
// per-packet heap allocation once warm.
var multiScratchPool = sync.Pool{New: func() any {
	sc := make([]int, 0, 64)
	return &sc
}}

// LookupAll classifies one header and returns every matching rule's action in
// strict priority order, stopping after (and including) the first terminating
// match — the multi-action semantics non-terminating rules opt into. The
// returned Result is the ordinary single-verdict outcome: its action fields
// always equal the first entry of the list (the HPMR), so LookupAll and
// Lookup agree by construction.
//
// Like Lookup it is lock-free and serves one consistent snapshot. It bypasses
// the microflow cache — cached verdicts memoise the single-action Result, not
// the list. Allocation-free steady state needs LookupAllInto with a recycled
// destination slice.
func (c *Classifier) LookupAll(h fivetuple.Header) ([]ActionRef, Result) {
	return c.LookupAllInto(nil, h)
}

// LookupAllInto is the allocation-free variant of LookupAll: matches are
// appended to dst[:0], reusing its backing array when capacity allows.
func (c *Classifier) LookupAllInto(dst []ActionRef, h fivetuple.Header) ([]ActionRef, Result) {
	r, sl := c.pick()
	dst, result := r.LookupAllInto(dst, h)
	c.lanes.release(sl)
	return dst, result
}

// LookupAllInto collects the multi-action verdict, appending to dst[:0], and
// accounts the lookup to this reader's lane.
func (r *Reader) LookupAllInto(dst []ActionRef, h fivetuple.Header) ([]ActionRef, Result) {
	dst, result := r.c.view().lookupAllInto(h, dst[:0])
	r.lane.stats.recordLookup(result)
	return dst, result
}

// lookupAllInto is the snapshot-level multi-action lookup. Routing mirrors
// snapshot.lookup, with one addition: an engine declaring multi-match
// support is asked for every matching rule. Engines without multi-match
// support can only be serving terminating rules (DimMultiAction is gated at
// install), so their single verdict IS the complete list.
func (s *snapshot) lookupAllInto(h fivetuple.Header, dst []ActionRef) ([]ActionRef, Result) {
	if h.Family != fivetuple.FamilyIPv4 && !s.packetDims.Has(fivetuple.DimIPv6) {
		return s.collectFallback(h, dst)
	}
	if mm, ok := s.engine.(engine.MultiMatchPacketEngine); ok {
		return s.collectPacket(mm, h, dst)
	}
	res := s.lookup(h)
	if res.Matched {
		dst = append(dst, ActionRef{Priority: res.Priority, Action: res.Action, ActionArg: res.ActionArg, Terminal: true})
	}
	return dst, res
}

// collectPacket gathers the multi-match verdict from a multi-match packet
// engine. The engine contract yields rule ids best-first, cut after the
// first terminating rule, so the ids map one for one onto the verdict list
// through the engine's Verdict, via a pooled id scratch.
func (s *snapshot) collectPacket(mm engine.MultiMatchPacketEngine, h fivetuple.Header, dst []ActionRef) ([]ActionRef, Result) {
	scp := multiScratchPool.Get().(*[]int)
	ids, accesses := mm.LookupPacketAll(h, (*scp)[:0])
	start := len(dst)
	for _, id := range ids {
		v := mm.Verdict(id)
		dst = append(dst, ActionRef{Priority: v.Priority, Action: v.Action, ActionArg: v.ActionArg, Terminal: !v.NonTerminating})
	}
	*scp = ids[:0]
	multiScratchPool.Put(scp)
	return dst, verdictResult(dst[start:], accesses)
}

// collectFallback serves a header no precomputed structure can answer (an
// IPv6 header under an IPv4-only engine selection) by scanning the rule
// table. The table is best-first, so the matches arrive in priority order
// and the scan ends at the first terminating one — the scan, and the access
// count, of the linear engine.
func (s *snapshot) collectFallback(h fivetuple.Header, dst []ActionRef) ([]ActionRef, Result) {
	start := len(dst)
	accesses := 0
	for i := range s.table.len() {
		accesses++
		r := s.table.at(i)
		if !r.Matches(h) {
			continue
		}
		dst = append(dst, ActionRef{Priority: r.Priority, Action: r.Action, ActionArg: r.ActionArg, Terminal: !r.NonTerminating})
		if !r.NonTerminating {
			break
		}
	}
	return dst, verdictResult(dst[start:], accesses)
}

// verdictResult is the single-verdict Result of a multi-action lookup served
// outside the field engine: the head of the verdict list and the accesses
// that found it.
func verdictResult(refs []ActionRef, accesses int) Result {
	var result Result
	result.FieldAccesses = accesses
	if len(refs) > 0 {
		result.Matched = true
		result.Priority = refs[0].Priority
		result.Action = refs[0].Action
		result.ActionArg = refs[0].ActionArg
	}
	return result
}

// lookupFallback is the single-verdict form of collectFallback: the first
// match of the rule table, which is what an IPv6 header falls back to when
// the active engine serves only the IPv4 five-tuple.
func (s *snapshot) lookupFallback(h fivetuple.Header) Result {
	var result Result
	accesses := s.table.len()
	for i := range accesses {
		if r := s.table.at(i); r.Matches(h) {
			result = Result{Matched: true, Priority: r.Priority, Action: r.Action, ActionArg: r.ActionArg}
			accesses = i + 1
			break
		}
	}
	result.FieldAccesses = accesses
	return result
}
