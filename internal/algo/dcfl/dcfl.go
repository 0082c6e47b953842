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
// The built classifier is pointer-free and copy-on-write. The per-field
// unique values are (lo,hi) pairs indexed by label, and each aggregation node
// is an open-addressed hash of 3-word slots plus the combination sets, all in
// internal/cow chunks. Sets list stable rule ids, best-first by (priority,
// id), and a lookup answers in those ids; the rules themselves are 40-byte
// fivetuple.PackedRule records by id, which carry the verdict. So a delta
// update renumbers nothing: it writes the set chunk of each node it edits,
// the record chunk it fills and, for a new value or combination, a field or
// slot chunk — and every clone shares the rest. Classify keeps its
// per-packet label sets in a pooled scratch and allocates nothing.
package dcfl

import (
	"cmp"
	"slices"
	"sync"

	"sdnpc/internal/cow"
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

// slot is one hash slot of an aggregation node: the combination's two input
// labels or IDs and its combination ID.
type slot [3]uint32

// aggNode is one aggregation node. The combination table is an
// open-addressed, linearly probed hash sized a power of two and kept under
// 3/4 load; sets maps a combination ID to its rule ids, best-first.
type aggNode struct {
	slots   cow.Array[slot]
	mask    int // slot count - 1
	sets    cow.Lists
	entries int // live rule ids across all sets
}

// Classifier is a DCFL classifier built from a rule set.
type Classifier struct {
	// Records stores the rules' records by stable id, best-first by
	// (priority, id), with the delta debt.
	fivetuple.Records

	// fields holds each field's unique values, the label being the index.
	// They are only ever appended to.
	fields [numFields]cow.Array[[2]uint32]

	ipTable    aggNode // (srcIP, dstIP)
	portTable  aggNode // (srcPort, dstPort)
	transTable aggNode // (portTable result, proto)
	finalTable aggNode // (ipTable result, transTable result) -> rule sets

	// Drift accounting (see delta.go): stale combination entries left by
	// deletes.
	staleCombos int
}

// scratch is the per-lookup working set: the matching labels per field and
// the surviving combination IDs per aggregation stage. Pooled so that
// steady-state Classify performs no allocation.
type scratch struct {
	labels          [numFields][]uint32
	ip, port, trans []uint32
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// fieldRange returns the inclusive (lo,hi) range the value arrays store for
// one field of a rule. Canonical prefixes are contiguous ranges, so range
// containment is exactly prefix match.
func fieldRange(f fieldIndex, r *fivetuple.PackedRule) (lo, hi uint32) {
	return r.Range(fivetuple.Fields()[f])
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

// Build constructs a DCFL classifier from a rule set.
func Build(rs *fivetuple.RuleSet) (*Classifier, error) {
	return BuildRules(rs.Rules())
}

// BuildRules constructs a DCFL classifier over rules, best-first — ascending
// priority, ties in installation order — with rule i under id i, keeping
// each rule's record with the priority it has. It refuses a rule the record
// cannot encode, naming the dimension, and keeps nothing of the slice.
//
// The build numbers each field's values, then each node's label pairs, in
// order of first use through one map it reuses throughout, and groups each
// node's rule ids by combination with a counting sort, so it allocates a
// handful of slices per table, none per combination.
func BuildRules(rules []fivetuple.Rule) (*Classifier, error) {
	recs, err := fivetuple.NewRecords("dcfl", rules)
	if err != nil {
		return nil, err
	}
	n := len(rules)
	c := &Classifier{Records: recs}
	b := &builder{index: make(map[uint64]uint32, n), keys: make([]uint64, n), distinct: make([]uint64, 0, n)}
	buf := make([]uint32, 10*n+1)
	var labels [numFields][]uint32
	for f := range numFields {
		labels[f] = buf[int(f)*n : int(f+1)*n]
		for i := range n {
			lo, hi := fieldRange(f, c.At(i))
			b.keys[i] = uint64(lo)<<32 | uint64(hi)
		}
		b.number(labels[f])
		values := make([][2]uint32, len(b.distinct), roundChunk(len(b.distinct)))
		for l, key := range b.distinct {
			values[l] = [2]uint32{uint32(key >> 32), uint32(key)}
		}
		c.fields[f] = cow.Adopt(values)
	}
	ipIDs, portIDs, transIDs := buf[5*n:6*n], buf[6*n:7*n], buf[7*n:8*n]
	b.ids, b.starts = buf[8*n:9*n], buf[9*n:]
	b.node(&c.ipTable, labels[fieldSrcIP], labels[fieldDstIP], ipIDs)
	b.node(&c.portTable, labels[fieldSrcPort], labels[fieldDstPort], portIDs)
	b.node(&c.transTable, portIDs, labels[fieldProto], transIDs)
	// No node reads the final IDs: they overwrite the consumed srcIP labels.
	b.node(&c.finalTable, ipIDs, transIDs, labels[fieldSrcIP])
	return c, nil
}

// roundChunk rounds n up to whole cow chunks, so a slice of that capacity is
// adopted without copying its tail.
func roundChunk(n int) int { return (n + cow.ChunkLen - 1) &^ (cow.ChunkLen - 1) }

// builder is BuildRules' scratch, one entry per rule, reused by every field
// and node.
type builder struct {
	index    map[uint64]uint32
	keys     []uint64
	distinct []uint64
	ids      []uint32 // a node's rule ids grouped by combination
	starts   []uint32 // where each combination's group starts in ids
}

// number writes to out[i] the number of keys[i] among the distinct keys in
// order of first use, and leaves those keys in distinct.
func (b *builder) number(out []uint32) {
	clear(b.index)
	b.distinct = b.distinct[:0]
	for i, key := range b.keys {
		id, ok := b.index[key]
		if !ok {
			id = uint32(len(b.distinct))
			b.index[key] = id
			b.distinct = append(b.distinct, key)
		}
		out[i] = id
	}
}

// node lays t out over the rules' (a[i], b[i]) pairs: the distinct pairs,
// numbered in order of first use, go into the hash slots, and each pair's
// rule ids, ascending and so best-first, into its set. It writes each rule's
// combination ID to out.
func (b *builder) node(t *aggNode, x, y, out []uint32) {
	for i := range x {
		b.keys[i] = uint64(x[i])<<32 | uint64(y[i])
	}
	b.number(out)
	combos := len(b.distinct)
	slots := t.emptySlots(nextPow2(2*combos + 8))
	for id, key := range b.distinct {
		s := slot{uint32(key >> 32), uint32(key), uint32(id)}
		slots[t.home(slots, s[0], s[1])] = s
	}
	t.slots = cow.Adopt(slots)
	// Counting sort: starts[id+1] counts, then accumulates, the group sizes.
	starts := b.starts[:combos+1]
	clear(starts)
	for _, id := range out {
		starts[id+1]++
	}
	for id := range combos {
		starts[id+1] += starts[id]
	}
	for i, id := range out {
		b.ids[starts[id]] = uint32(i)
		starts[id]++
	}
	// starts[id] is now where group id ends, and so where group id+1 starts.
	var lists [cow.ChunkLen][]uint32
	for id := range combos {
		lo := uint32(0)
		if id > 0 {
			lo = starts[id-1]
		}
		lists[id&(cow.ChunkLen-1)] = b.ids[lo:starts[id]]
		if id&(cow.ChunkLen-1) == cow.ChunkLen-1 {
			t.sets.AppendChunk(lists[:])
		}
	}
	if rest := combos & (cow.ChunkLen - 1); rest > 0 {
		t.sets.AppendChunk(lists[:rest])
	}
	t.entries = len(out)
}

// emptySlots returns a slot table of count empty slots, a power of two, as
// a plain slice, and sets the mask for it.
func (t *aggNode) emptySlots(count int) []slot {
	slots := make([]slot, count, roundChunk(count))
	for i := range slots {
		slots[i][0] = emptySlot
	}
	t.mask = count - 1
	return slots
}

// home returns the first empty slot of (a, b)'s probe sequence in a slot
// table laid out as a plain slice of mask+1 slots.
func (t *aggNode) home(slots []slot, a, b uint32) int {
	i := int(hashPair(a, b)) & t.mask
	for slots[i][0] != emptySlot {
		i = (i + 1) & t.mask
	}
	return i
}

// probe looks up the combination (a, b) in the node's hash table; ok is
// false when no rule ever used it.
func (t *aggNode) probe(a, b uint32) (uint32, bool) {
	i := int(hashPair(a, b)) & t.mask
	for {
		s := t.slots.At(i)
		switch {
		case s[0] == emptySlot:
			return 0, false
		case s[0] == a && s[1] == b:
			return s[2], true
		}
		i = (i + 1) & t.mask
	}
}

// fieldSearch appends the labels of the unique field values matching the
// header in each dimension into the scratch, and returns the number of
// memory accesses charged for the field searches. The access model charges
// one access per stored unique value inspected, following the
// longest-prefix/range scan structure DCFL uses per field (a trie or range
// tree walk per matching prefix length).
func (c *Classifier) fieldSearch(h fivetuple.Header, sc *scratch) (accesses int) {
	keys := [numFields]uint32{
		uint32(h.SrcIP), uint32(h.DstIP),
		uint32(h.SrcPort), uint32(h.DstPort), uint32(h.Protocol),
	}
	for f := range numFields {
		values := &c.fields[f]
		v := keys[f]
		for k := 0; k<<cow.ChunkShift < values.Len(); k++ {
			base := uint32(k << cow.ChunkShift)
			for j, r := range values.Chunk(k) {
				if v >= r[0] && v <= r[1] {
					sc.labels[f] = append(sc.labels[f], base+uint32(j))
				}
			}
		}
	}
	accesses += prefixSearchCost(c.fields[fieldSrcIP].Len())
	accesses += prefixSearchCost(c.fields[fieldDstIP].Len())
	accesses += rangeSearchCost(c.fields[fieldSrcPort].Len())
	accesses += rangeSearchCost(c.fields[fieldDstPort].Len())
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
			if id, ok := c.ipTable.probe(s, d); ok {
				sc.ip = append(sc.ip, id)
			}
		}
	}
	for _, s := range sc.labels[fieldSrcPort] {
		for _, d := range sc.labels[fieldDstPort] {
			accesses++
			if id, ok := c.portTable.probe(s, d); ok {
				sc.port = append(sc.port, id)
			}
		}
	}
	for _, p := range sc.port {
		for _, pr := range sc.labels[fieldProto] {
			accesses++
			if id, ok := c.transTable.probe(p, pr); ok {
				sc.trans = append(sc.trans, id)
			}
		}
	}
	return accesses
}

// Classify returns the id of the highest-priority matching rule, whether any
// rule matched and the number of memory accesses performed (field searches
// plus aggregation-table probes). Sets are best-first, so each surviving
// final set offers its head.
func (c *Classifier) Classify(h fivetuple.Header) (id int, matched bool, accesses int) {
	sc := scratchPool.Get().(*scratch)
	accesses = c.aggregate(h, sc)
	for _, ip := range sc.ip {
		for _, tr := range sc.trans {
			accesses++
			if combo, ok := c.finalTable.probe(ip, tr); ok {
				if set := c.finalTable.sets.List(int(combo)); len(set) > 0 && (!matched || c.order(int(set[0]), id) < 0) {
					id, matched = int(set[0]), true
				}
			}
		}
	}
	scratchPool.Put(sc)
	return id, matched, accesses
}

// order compares rule ids a and b best-first: by priority, ties by id, which
// is installation order.
func (c *Classifier) order(a, b int) int {
	return cmp.Or(cmp.Compare(c.At(a).Priority, c.At(b).Priority), cmp.Compare(a, b))
}

// ClassifyAll appends to dst the ids of the rules matching the header,
// best-first, up to and including the first terminating one — the
// multi-action chain — and returns the extended slice plus the number of
// memory accesses, which counts every rule of every surviving final set, as
// an enumeration of every match reads them. Each rule belongs to exactly one
// final-table combination, so the surviving sets are disjoint; each is
// best-first, but their concatenation is not, so the chain is sorted. dst is
// appended to without allocating when it has sufficient capacity.
func (c *Classifier) ClassifyAll(h fivetuple.Header, dst []int) ([]int, int) {
	sc := scratchPool.Get().(*scratch)
	accesses := c.aggregate(h, sc)
	start, last := len(dst), -1 // last: the best terminating match, once there is one
	for _, ip := range sc.ip {
		for _, tr := range sc.trans {
			accesses++
			combo, ok := c.finalTable.probe(ip, tr)
			if !ok {
				continue
			}
			set := c.finalTable.sets.List(int(combo))
			accesses += len(set)
			for _, rule := range set {
				id := int(rule)
				if last >= 0 && c.order(id, last) > 0 {
					break
				}
				dst = append(dst, id)
				if !c.At(id).NonTerminating {
					last = id
					break
				}
			}
		}
	}
	scratchPool.Put(sc)
	chain := dst[start:start]
	for _, id := range dst[start:] {
		if last < 0 || c.order(id, last) <= 0 {
			chain = append(chain, id)
		}
	}
	slices.SortFunc(chain, c.order)
	return dst[:start+len(chain)], accesses
}

// MemoryBits returns the storage consumed by the field structures and the
// aggregation tables.
func (c *Classifier) MemoryBits() int {
	total := 0
	// Field structures: each unique prefix is a trie entry (~64 bits), each
	// unique range a pair of bounds plus label, each protocol an 8-bit keyed
	// entry.
	total += (c.fields[fieldSrcIP].Len() + c.fields[fieldDstIP].Len()) * 64
	total += (c.fields[fieldSrcPort].Len() + c.fields[fieldDstPort].Len()) * (16 + 16 + 16)
	total += c.fields[fieldProto].Len() * (8 + 16)
	// Aggregation tables: each combination entry stores two 16-bit input
	// labels/IDs plus the combination ID, and each stored rule index is a
	// 14-bit pointer (the architecture would store the best rule only per
	// combination at the final node and the combination ID elsewhere).
	for _, t := range c.aggTables() {
		total += t.sets.Len()*(16+16+16) + t.entries*14
	}
	return total
}
