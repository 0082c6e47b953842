// Package dcfl implements Distributed Crossproducting of Field Labels
// (Taylor & Turner, INFOCOM 2005), the decomposition baseline of Table I and
// the origin of the label method the paper's architecture adopts (§III.C).
//
// Each header field is searched independently; the result of a field search
// is the set of labels of the unique field values matching the packet. An
// aggregation network then combines the field label sets pairwise: at every
// aggregation node the candidate label combinations (the cross-product of the
// two incoming sets) are probed against a table of combinations that actually
// occur in the rule set, so only viable combinations survive to the next
// stage. The final surviving combination set identifies the matching rules,
// from which the highest priority one is returned.
//
// Memory accesses per lookup are dominated by the aggregation probes — the
// cross-product of the *matching* label sets, which is small — giving the
// good lookup numbers of Table I; memory usage is dominated by the
// combination tables, which is why DCFL's footprint in Table I is large.
//
// The built classifier is flat: the per-field unique values are (lo,hi)
// range arrays indexed by label, and each aggregation node is an
// open-addressed hash table plus a directory of rule-index spans — all laid
// out in one contiguous arena with index links. The published structure is
// two pointer-free allocations (arena + rule table) the collector scans in
// O(1); Classify keeps its per-packet label sets in a pooled scratch and
// allocates nothing in steady state.
package dcfl

import (
	"fmt"
	"sort"
	"sync"

	"sdnpc/internal/arena"
	"sdnpc/internal/fivetuple"
)

// fieldIndex identifies one of the five lookup fields.
type fieldIndex int

const (
	fieldSrcIP fieldIndex = iota
	fieldDstIP
	fieldSrcPort
	fieldDstPort
	fieldProto
	numFields
)

// emptySlot marks an unoccupied hash slot. Labels and combination IDs are
// dense small integers, so the all-ones word can never collide with one.
const emptySlot = ^uint32(0)

// flatSpan locates one per-field value array in the arena: n live (lo,hi)
// pairs in a region with room for cap, the value's label being its index.
// This exploits the Build invariant that field values are stored in label
// order, so the flat form needs no label map at all.
type flatSpan struct {
	off, n, cap int
}

// flatAgg is one aggregation node in the arena. The combination table is an
// open-addressed, linearly probed hash of 3-word slots (a, b, id) sized a
// power of two and kept under 3/4 load; the directory maps a combination ID
// to its rule-index span (off, len, cap triples).
type flatAgg struct {
	slotOff  int
	slotMask int // slot count - 1
	used     int // occupied slots == combinations (including emptied ones)

	dirOff, dirLen, dirCap int

	entries int // live rule indices across all spans
}

// Classifier is a DCFL classifier built from a rule set.
type Classifier struct {
	rules []fivetuple.Rule

	// The flat store: field arrays, then the aggregation tables, then the
	// spare region [bump, limit) feeding span relocations and rehashes.
	ar    *arena.Arena
	words []uint32
	bump  int
	limit int

	fields [numFields]flatSpan

	ipTable    flatAgg // (srcIP, dstIP)
	portTable  flatAgg // (srcPort, dstPort)
	transTable flatAgg // (portTable result, proto)
	finalTable flatAgg // (ipTable result, transTable result) -> rule sets

	// Delta accounting (see delta.go): stale combination entries left by
	// deletes, and the op/write counters of updates applied since Build.
	staleCombos int
	deltas      int
	deltaWrites int
}

// scratch is the per-lookup working set: the matching labels per field and
// the surviving combination IDs per aggregation stage. Pooled so that
// steady-state Classify performs no allocation.
type scratch struct {
	labels          [numFields][]uint32
	ip, port, trans []uint32
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// fieldRange converts one rule field into the inclusive (lo,hi) range the
// flat value arrays store. Canonical prefixes are contiguous ranges, so
// range containment is exactly prefix match.
func fieldRange(f fieldIndex, r fivetuple.Rule) (lo, hi uint32) {
	switch f {
	case fieldSrcIP:
		p := r.SrcPrefix.Canonical()
		span := uint64(1) << (32 - uint64(p.Len))
		return uint32(p.Addr), uint32(uint64(p.Addr) + span - 1)
	case fieldDstIP:
		p := r.DstPrefix.Canonical()
		span := uint64(1) << (32 - uint64(p.Len))
		return uint32(p.Addr), uint32(uint64(p.Addr) + span - 1)
	case fieldSrcPort:
		return uint32(r.SrcPort.Lo), uint32(r.SrcPort.Hi)
	case fieldDstPort:
		return uint32(r.DstPort.Lo), uint32(r.DstPort.Hi)
	default:
		if r.Protocol.IsWildcard() {
			return 0, 255
		}
		return uint32(r.Protocol.Value), uint32(r.Protocol.Value)
	}
}

// hashPair mixes a packed label pair into a hash-slot index seed.
func hashPair(a, b uint32) uint64 {
	h := uint64(a)<<32 | uint64(b)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// buildAgg is the transient (map-based) form of an aggregation node used
// only during Build; flatten converts it into a flatAgg and drops it.
type buildAgg struct {
	combos map[uint64]uint32 // packed pair -> combination ID
	sets   [][]uint32        // combination ID -> sorted rule indices
}

func packPair(a, b uint32) uint64 { return uint64(a)<<32 | uint64(b) }

func (t *buildAgg) add(a, b uint32, idx uint32) uint32 {
	key := packPair(a, b)
	id, ok := t.combos[key]
	if !ok {
		id = uint32(len(t.sets))
		t.combos[key] = id
		t.sets = append(t.sets, nil)
	}
	t.sets[id] = insertSorted(t.sets[id], idx)
	return id
}

func insertSorted(s []uint32, v uint32) []uint32 {
	pos := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	if pos < len(s) && s[pos] == v {
		return s
	}
	s = append(s, 0)
	copy(s[pos+1:], s[pos:])
	s[pos] = v
	return s
}

// Build constructs a DCFL classifier from a rule set and flattens it.
func Build(rs *fivetuple.RuleSet) (*Classifier, error) {
	if rs.Len() == 0 {
		return nil, fmt.Errorf("dcfl: empty rule set")
	}
	c := &Classifier{rules: rs.Rules()}
	var values [numFields][][2]uint32
	tables := [4]*buildAgg{}
	for i := range tables {
		tables[i] = &buildAgg{combos: make(map[uint64]uint32)}
	}
	labelOf := func(f fieldIndex, r fivetuple.Rule) uint32 {
		lo, hi := fieldRange(f, r)
		for l, v := range values[f] {
			if v[0] == lo && v[1] == hi {
				return uint32(l)
			}
		}
		values[f] = append(values[f], [2]uint32{lo, hi})
		return uint32(len(values[f]) - 1)
	}
	for idx, r := range c.rules {
		srcLbl := labelOf(fieldSrcIP, r)
		dstLbl := labelOf(fieldDstIP, r)
		spLbl := labelOf(fieldSrcPort, r)
		dpLbl := labelOf(fieldDstPort, r)
		prLbl := labelOf(fieldProto, r)

		ruleIdx := uint32(idx)
		ipID := tables[0].add(srcLbl, dstLbl, ruleIdx)
		portID := tables[1].add(spLbl, dpLbl, ruleIdx)
		transID := tables[2].add(portID, prLbl, ruleIdx)
		tables[3].add(ipID, transID, ruleIdx)
	}
	c.flatten(values, tables)
	return c, nil
}

// flatten lays the transient build structures out in one arena: field value
// arrays with slack, then per aggregation node the hash slots, the set
// directory and the rule-index spans, then the spare region.
func (c *Classifier) flatten(values [numFields][][2]uint32, tables [4]*buildAgg) {
	b := arena.NewBuilder()
	const fieldSlack = 4
	var fieldHandles [numFields]arena.Handle
	for f := fieldIndex(0); f < numFields; f++ {
		n := len(values[f])
		spanCap := n + fieldSlack
		h, w := b.Words(2 * spanCap)
		for l, v := range values[f] {
			w[2*l] = v[0]
			w[2*l+1] = v[1]
		}
		fieldHandles[f] = h
		c.fields[f] = flatSpan{off: int(h), n: n, cap: spanCap}
	}
	flats := [4]*flatAgg{&c.ipTable, &c.portTable, &c.transTable, &c.finalTable}
	totalSpan := 0
	for ti, t := range tables {
		fa := flats[ti]
		slotCount := nextPow2(2*len(t.combos) + 8)
		sh, slots := b.Words(3 * slotCount)
		for i := range slots {
			slots[i] = emptySlot
		}
		fa.slotOff = int(sh)
		fa.slotMask = slotCount - 1
		fa.used = len(t.combos)
		for key, id := range t.combos {
			a, bb := uint32(key>>32), uint32(key)
			i := int(hashPair(a, bb)) & fa.slotMask
			for slots[3*i] != emptySlot {
				i = (i + 1) & fa.slotMask
			}
			slots[3*i], slots[3*i+1], slots[3*i+2] = a, bb, id
		}
		fa.dirLen = len(t.sets)
		fa.dirCap = len(t.sets) + 4
		dh, dir := b.Words(3 * fa.dirCap)
		fa.dirOff = int(dh)
		for id, set := range t.sets {
			spanCap := len(set) + 2
			eh, span := b.Words(spanCap)
			for j, v := range set {
				span[j] = v
			}
			dir[3*id] = uint32(eh)
			dir[3*id+1] = uint32(len(set))
			dir[3*id+2] = uint32(spanCap)
			fa.entries += len(set)
			totalSpan += spanCap
		}
	}
	spare := totalSpan/2 + 128
	b.Words(spare)
	c.ar = b.Finish()
	c.words = c.ar.Words(0, c.ar.WordLen())
	c.limit = c.ar.WordLen()
	c.bump = c.limit - spare
}

// spareAlloc carves n words out of the spare region, growing the arena when
// it is exhausted. Callers must refresh any local word-space view after.
func (c *Classifier) spareAlloc(n int) int {
	if c.bump+n > c.limit {
		extra := c.limit/2 + 128
		if extra < 2*n {
			extra = 2 * n
		}
		c.ar.Grow(extra)
		c.words = c.ar.Words(0, c.ar.WordLen())
		c.limit = c.ar.WordLen()
	}
	off := c.bump
	c.bump += n
	return off
}

// probe looks up the combination (a, b) in the node's hash table; ok is
// false when no rule ever used it.
func (c *Classifier) probe(t *flatAgg, a, b uint32) (uint32, bool) {
	w := c.words
	i := int(hashPair(a, b)) & t.slotMask
	for {
		s := t.slotOff + 3*i
		switch {
		case w[s] == emptySlot:
			return 0, false
		case w[s] == a && w[s+1] == b:
			return w[s+2], true
		}
		i = (i + 1) & t.slotMask
	}
}

// setView returns the directory entry of combination id.
func (c *Classifier) setView(t *flatAgg, id uint32) (off, n, setCap int) {
	d := t.dirOff + 3*int(id)
	w := c.words
	return int(w[d]), int(w[d+1]), int(w[d+2])
}

// fieldSearch appends the labels of the unique field values matching the
// header in each dimension into the scratch, and returns the number of
// memory accesses charged for the field searches. The access model charges
// one access per stored unique value inspected, following the
// longest-prefix/range scan structure DCFL uses per field (a trie or range
// tree walk per matching prefix length).
func (c *Classifier) fieldSearch(h fivetuple.Header, sc *scratch) (accesses int) {
	w := c.words
	keys := [numFields]uint32{
		uint32(h.SrcIP), uint32(h.DstIP),
		uint32(h.SrcPort), uint32(h.DstPort), uint32(h.Protocol),
	}
	for f := fieldIndex(0); f < numFields; f++ {
		span := c.fields[f]
		v := keys[f]
		for l := 0; l < span.n; l++ {
			if v >= w[span.off+2*l] && v <= w[span.off+2*l+1] {
				sc.labels[f] = append(sc.labels[f], uint32(l))
			}
		}
	}
	accesses += prefixSearchCost(c.fields[fieldSrcIP].n)
	accesses += prefixSearchCost(c.fields[fieldDstIP].n)
	accesses += rangeSearchCost(c.fields[fieldSrcPort].n)
	accesses += rangeSearchCost(c.fields[fieldDstPort].n)
	accesses++ // protocol lookup table
	return accesses
}

// prefixSearchCost models the per-field lookup cost of an IP dimension: a
// 32-bit longest-prefix trie walk visiting up to 8 nodes (4-bit strides), as
// in the DCFL paper's evaluation configuration.
func prefixSearchCost(uniqueValues int) int {
	if uniqueValues == 0 {
		return 0
	}
	return 8
}

// rangeSearchCost models the per-field lookup cost of a port dimension: a
// balanced range-tree descent over the unique ranges.
func rangeSearchCost(uniqueValues int) int {
	cost := 1
	for n := 1; n < uniqueValues; n *= 2 {
		cost++
	}
	return cost
}

// aggregate resets the scratch, runs the field searches and the first three
// stages of the aggregation network — each surviving only the combinations
// present in its table — and returns the memory accesses charged so far.
// The surviving IP-pair and transport combination ids are left in sc.ip and
// sc.trans for the caller's final-table walk.
func (c *Classifier) aggregate(h fivetuple.Header, sc *scratch) (accesses int) {
	for f := range sc.labels {
		sc.labels[f] = sc.labels[f][:0]
	}
	sc.ip, sc.port, sc.trans = sc.ip[:0], sc.port[:0], sc.trans[:0]

	accesses = c.fieldSearch(h, sc)
	for _, s := range sc.labels[fieldSrcIP] {
		for _, d := range sc.labels[fieldDstIP] {
			accesses++
			if id, ok := c.probe(&c.ipTable, s, d); ok {
				sc.ip = append(sc.ip, id)
			}
		}
	}
	for _, s := range sc.labels[fieldSrcPort] {
		for _, d := range sc.labels[fieldDstPort] {
			accesses++
			if id, ok := c.probe(&c.portTable, s, d); ok {
				sc.port = append(sc.port, id)
			}
		}
	}
	for _, p := range sc.port {
		for _, pr := range sc.labels[fieldProto] {
			accesses++
			if id, ok := c.probe(&c.transTable, p, pr); ok {
				sc.trans = append(sc.trans, id)
			}
		}
	}
	return accesses
}

// Classify returns the index of the highest-priority matching rule, whether
// any rule matched and the number of memory accesses performed (field
// searches plus aggregation-table probes).
func (c *Classifier) Classify(h fivetuple.Header) (ruleIndex int, matched bool, accesses int) {
	sc := scratchPool.Get().(*scratch)
	accesses = c.aggregate(h, sc)
	w := c.words
	best := -1
	for _, ip := range sc.ip {
		for _, tr := range sc.trans {
			accesses++
			if id, ok := c.probe(&c.finalTable, ip, tr); ok {
				off, n, _ := c.setView(&c.finalTable, id)
				if n > 0 && (best < 0 || int(w[off]) < best) {
					best = int(w[off])
				}
			}
		}
	}
	scratchPool.Put(sc)
	if best < 0 {
		return 0, false, accesses
	}
	return best, true, accesses
}

// ClassifyAll appends the indices of every rule matching the header to dst
// and returns the extended slice plus the number of memory accesses. Each
// rule belongs to exactly one final-table combination, so the surviving
// combination spans are disjoint and no deduplication is needed — but the
// concatenation of spans is not globally ordered (and delta churn reorders
// combinations), so callers needing priority order must sort the result. dst
// is appended to without allocating when it has sufficient capacity.
func (c *Classifier) ClassifyAll(h fivetuple.Header, dst []int) ([]int, int) {
	sc := scratchPool.Get().(*scratch)
	accesses := c.aggregate(h, sc)
	w := c.words
	for _, ip := range sc.ip {
		for _, tr := range sc.trans {
			accesses++
			if id, ok := c.probe(&c.finalTable, ip, tr); ok {
				off, n, _ := c.setView(&c.finalTable, id)
				accesses += n
				for j := 0; j < n; j++ {
					dst = append(dst, int(w[off+j]))
				}
			}
		}
	}
	scratchPool.Put(sc)
	return dst, accesses
}

// NumRules returns the length of the rule table the classifier answers in.
func (c *Classifier) NumRules() int { return len(c.rules) }

// Rule returns the rule at index i of that table, for reading only and until
// the next delta. Build renumbers priorities positionally, so only the rule's
// matches, action and termination are meaningful to a caller.
func (c *Classifier) Rule(i int) *fivetuple.Rule { return &c.rules[i] }

// MemoryBits returns the storage consumed by the field structures and the
// aggregation tables.
func (c *Classifier) MemoryBits() int {
	total := 0
	// Field structures: each unique prefix is a trie entry (~64 bits), each
	// unique range a pair of bounds plus label, each protocol an 8-bit keyed
	// entry.
	total += (c.fields[fieldSrcIP].n + c.fields[fieldDstIP].n) * 64
	total += (c.fields[fieldSrcPort].n + c.fields[fieldDstPort].n) * (16 + 16 + 16)
	total += c.fields[fieldProto].n * (8 + 16)
	// Aggregation tables: each combination entry stores two 16-bit input
	// labels/IDs plus the combination ID, and each stored rule index is a
	// 14-bit pointer (the architecture would store the best rule only per
	// combination at the final node and the combination ID elsewhere).
	for _, t := range c.aggTables() {
		total += t.used*(16+16+16) + t.entries*14
	}
	return total
}
