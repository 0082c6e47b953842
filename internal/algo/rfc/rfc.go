// Package rfc implements Recursive Flow Classification (Gupta & McKeown,
// SIGCOMM'99), one of the multi-field baselines the paper compares against in
// Table I.
//
// RFC reduces the packet header to the matching rule in a fixed number of
// table indexings. Phase 0 maps each header chunk (the two 16-bit halves of
// each IP address, the two ports and the protocol) to an equivalence-class
// identifier; later phases combine pairs (or triples) of identifiers through
// precomputed cross-product tables until a single identifier remains, which
// indexes the highest-priority matching rule.
//
// The classic trade-off, visible in Table I, is very fast lookups (a small,
// constant number of memory accesses) against very large precomputed tables;
// the cross-product tables grow with the product of the equivalence-class
// counts of their inputs.
//
// The built classifier is flat: every phase table is one plain []uint32 (the
// protocol chunk's class IDs always fit a byte, so its table is a []byte),
// and the final phase resolves to a precomputed best-rule-per-class array.
// The tables are pointer-free — the collector never scans them — and
// Classify allocates nothing.
package rfc

import (
	"fmt"
	"sort"

	"sdnpc/internal/fivetuple"
)

// chunk identifies one of the seven phase-0 header chunks.
type chunk int

const (
	chunkSrcHi chunk = iota
	chunkSrcLo
	chunkDstHi
	chunkDstLo
	chunkSrcPort
	chunkDstPort
	chunkProto
	numChunks
)

// noRule is the finalBest sentinel for a class that matches no rule.
const noRule = ^uint32(0)

// Classifier is an RFC classifier built from a rule set. After Build it is
// read-only: all tables are index-linked, pointer-free slices.
type Classifier struct {
	rules []fivetuple.Rule

	// phase0 maps a chunk value to its equivalence-class ID. The protocol
	// chunk is a byte table (256 values, at most 256 classes) — its phase0
	// entry is nil.
	phase0     [numChunks][]uint32
	protoTable []byte

	// Later phases: crossTable[t] is indexed by idA*width+idB.
	srcTable   crossTable // (srcHi, srcLo)
	dstTable   crossTable // (dstHi, dstLo)
	portTable  crossTable // (srcPort, dstPort)
	l3Table    crossTable // (src, dst)
	l4Table    crossTable // (port, proto)
	finalTable crossTable // (l3, l4)

	// finalBest[class] is the lowest (best-priority) rule index of the final
	// class, or noRule — the precomputed resolution of the final class sets.
	finalBest []uint32

	classCounts [numChunks]int
	memoryBits  int
}

// crossTable combines two equivalence-class ID streams into one.
type crossTable struct {
	widthB  int
	classes int
	entries []uint32
}

// index returns the combined class ID for the input pair.
func (t *crossTable) index(a, b uint32) uint32 {
	return t.entries[int(a)*t.widthB+int(b)]
}

// entryBits returns the width of one stored entry.
func (t *crossTable) entryBits() int { return ceilLog2(t.classes) }

// memoryBits returns the storage consumed by the table.
func (t *crossTable) memoryBits() int { return len(t.entries) * t.entryBits() }

func ceilLog2(n int) int {
	bits := 1
	for (1 << bits) < n {
		bits++
	}
	return bits
}

// buildTable is the transient (pointer-rich) form of a cross table: the
// class sets exist only while later tables are derived from them, then the
// entries are kept and the sets dropped.
type buildTable struct {
	widthB  int
	entries []uint32
	sets    [][]uint32
}

// Build constructs the RFC tables for a rule set and flattens them.
func Build(rs *fivetuple.RuleSet) (*Classifier, error) {
	if rs.Len() == 0 {
		return nil, fmt.Errorf("rfc: empty rule set")
	}
	c := &Classifier{rules: rs.Rules()}
	phase0, classSets := c.buildPhase0()
	src, err := cross(classSets[chunkSrcHi], classSets[chunkSrcLo])
	if err != nil {
		return nil, err
	}
	dst, err := cross(classSets[chunkDstHi], classSets[chunkDstLo])
	if err != nil {
		return nil, err
	}
	port, err := cross(classSets[chunkSrcPort], classSets[chunkDstPort])
	if err != nil {
		return nil, err
	}
	l3, err := cross(src.sets, dst.sets)
	if err != nil {
		return nil, err
	}
	l4, err := cross(port.sets, classSets[chunkProto])
	if err != nil {
		return nil, err
	}
	final, err := cross(l3.sets, l4.sets)
	if err != nil {
		return nil, err
	}
	for ch := chunk(0); ch < numChunks; ch++ {
		c.classCounts[ch] = len(classSets[ch])
	}
	c.flatten(phase0, []*buildTable{src, dst, port, l3, l4, final})
	return c, nil
}

// flatten keeps the phase tables, narrows the protocol table to bytes and
// precomputes the final best-rule array, dropping every transient build
// structure.
func (c *Classifier) flatten(phase0 [numChunks][]uint32, tables []*buildTable) {
	c.phase0 = phase0
	c.phase0[chunkProto] = nil
	c.protoTable = make([]byte, chunkDomain(chunkProto))
	for v, id := range phase0[chunkProto] {
		c.protoTable[v] = byte(id)
	}
	flat := make([]crossTable, len(tables))
	for i, t := range tables {
		flat[i] = crossTable{widthB: t.widthB, classes: len(t.sets), entries: t.entries}
	}
	c.srcTable, c.dstTable, c.portTable = flat[0], flat[1], flat[2]
	c.l3Table, c.l4Table, c.finalTable = flat[3], flat[4], flat[5]
	final := tables[len(tables)-1]
	c.finalBest = make([]uint32, len(final.sets))
	for id, set := range final.sets {
		c.finalBest[id] = noRule
		if len(set) > 0 {
			c.finalBest[id] = set[0]
		}
	}

	total := 0
	for ch := chunk(0); ch < numChunks; ch++ {
		total += chunkDomain(ch) * ceilLog2(c.classCounts[ch])
	}
	for i := range flat {
		total += flat[i].memoryBits()
	}
	c.memoryBits = total
}

// chunkRange returns the inclusive range of chunk values matched by the rule
// in the given chunk dimension.
func chunkRange(r fivetuple.Rule, c chunk) (lo, hi uint32, wildcardProto bool) {
	segRange := func(value uint16, bits uint8) (uint32, uint32) {
		span := uint32(1) << (16 - uint32(bits))
		start := uint32(value) &^ (span - 1)
		return start, start + span - 1
	}
	switch c {
	case chunkSrcHi:
		v, b := r.SrcPrefix.HighSegment()
		lo, hi = segRange(v, b)
	case chunkSrcLo:
		v, b := r.SrcPrefix.LowSegment()
		lo, hi = segRange(v, b)
	case chunkDstHi:
		v, b := r.DstPrefix.HighSegment()
		lo, hi = segRange(v, b)
	case chunkDstLo:
		v, b := r.DstPrefix.LowSegment()
		lo, hi = segRange(v, b)
	case chunkSrcPort:
		lo, hi = uint32(r.SrcPort.Lo), uint32(r.SrcPort.Hi)
	case chunkDstPort:
		lo, hi = uint32(r.DstPort.Lo), uint32(r.DstPort.Hi)
	case chunkProto:
		if r.Protocol.IsWildcard() {
			return 0, 255, true
		}
		lo, hi = uint32(r.Protocol.Value), uint32(r.Protocol.Value)
	}
	return lo, hi, false
}

func chunkDomain(c chunk) int {
	if c == chunkProto {
		return 256
	}
	return 65536
}

// buildPhase0 computes, for every chunk, the value→class table and the class
// rule sets using a boundary sweep.
func (c *Classifier) buildPhase0() (phase0 [numChunks][]uint32, classSets [numChunks][][]uint32) {
	for ch := chunk(0); ch < numChunks; ch++ {
		domain := chunkDomain(ch)
		// Event lists: rules starting and ending at each value.
		starts := make(map[uint32][]uint32)
		ends := make(map[uint32][]uint32)
		boundaries := map[uint32]struct{}{0: {}}
		for idx, r := range c.rules {
			lo, hi, _ := chunkRange(r, ch)
			starts[lo] = append(starts[lo], uint32(idx))
			ends[hi] = append(ends[hi], uint32(idx))
			boundaries[lo] = struct{}{}
			if hi+1 < uint32(domain) {
				boundaries[hi+1] = struct{}{}
			}
		}
		points := make([]uint32, 0, len(boundaries))
		for b := range boundaries {
			points = append(points, b)
		}
		sort.Slice(points, func(i, j int) bool { return points[i] < points[j] })

		table := make([]uint32, domain)
		classIndex := make(map[string]uint32)
		var sets [][]uint32
		active := make(map[uint32]struct{})
		for pi, start := range points {
			end := uint32(domain)
			if pi+1 < len(points) {
				end = points[pi+1]
			}
			// Apply start events: every rule range starts exactly on an
			// interval boundary by construction.
			for _, idx := range starts[start] {
				active[idx] = struct{}{}
			}
			set := setFromMap(active)
			key := setKey(set)
			id, ok := classIndex[key]
			if !ok {
				id = uint32(len(sets))
				classIndex[key] = id
				sets = append(sets, set)
			}
			for v := start; v < end; v++ {
				table[v] = id
			}
			// Apply end events: every rule range ends exactly on the last
			// value of some elementary interval.
			for _, idx := range ends[end-1] {
				delete(active, idx)
			}
		}
		phase0[ch] = table
		classSets[ch] = sets
	}
	return phase0, classSets
}

func setFromMap(m map[uint32]struct{}) []uint32 {
	out := make([]uint32, 0, len(m))
	for v := range m {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func setKey(set []uint32) string {
	buf := make([]byte, 0, len(set)*4)
	for _, v := range set {
		buf = append(buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return string(buf)
}

// maxCrossEntries bounds the size of any single cross-product table; beyond
// this the rule set is considered too large for RFC (the memory explosion the
// paper's Table I quantifies).
const maxCrossEntries = 64 << 20

// cross builds the cross-product table of two class-set families.
func cross(a, b [][]uint32) (*buildTable, error) {
	entries := len(a) * len(b)
	if entries > maxCrossEntries {
		return nil, fmt.Errorf("rfc: cross-product table of %d x %d classes exceeds the %d-entry limit",
			len(a), len(b), maxCrossEntries)
	}
	t := &buildTable{widthB: len(b), entries: make([]uint32, entries)}
	classIndex := make(map[string]uint32)
	for i, sa := range a {
		for j, sb := range b {
			inter := intersect(sa, sb)
			key := setKey(inter)
			id, ok := classIndex[key]
			if !ok {
				id = uint32(len(t.sets))
				classIndex[key] = id
				t.sets = append(t.sets, inter)
			}
			t.entries[i*t.widthB+j] = id
		}
	}
	return t, nil
}

// intersect returns the sorted intersection of two sorted slices.
func intersect(a, b []uint32) []uint32 {
	var out []uint32
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			out = append(out, a[i])
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return out
}

// Classify returns the index of the highest-priority matching rule and the
// number of table accesses performed. It allocates nothing: thirteen
// indexings of the flat tables resolve the header.
func (c *Classifier) Classify(h fivetuple.Header) (ruleIndex int, matched bool, accesses int) {
	// Phase 0: seven chunk tables.
	srcHi := c.phase0[chunkSrcHi][h.SrcIP.High16()]
	srcLo := c.phase0[chunkSrcLo][h.SrcIP.Low16()]
	dstHi := c.phase0[chunkDstHi][h.DstIP.High16()]
	dstLo := c.phase0[chunkDstLo][h.DstIP.Low16()]
	srcPort := c.phase0[chunkSrcPort][h.SrcPort]
	dstPort := c.phase0[chunkDstPort][h.DstPort]
	proto := uint32(c.protoTable[h.Protocol])
	accesses = 7
	// Phase 1.
	src := c.srcTable.index(srcHi, srcLo)
	dst := c.dstTable.index(dstHi, dstLo)
	ports := c.portTable.index(srcPort, dstPort)
	accesses += 3
	// Phase 2.
	l3 := c.l3Table.index(src, dst)
	l4 := c.l4Table.index(ports, proto)
	accesses += 2
	// Phase 3.
	final := c.finalTable.index(l3, l4)
	accesses++

	best := c.finalBest[final]
	if best == noRule {
		return 0, false, accesses
	}
	return int(best), true, accesses
}

// AccessesPerLookup returns the constant number of table indexings RFC
// performs per packet.
func (c *Classifier) AccessesPerLookup() int { return 13 }

// MemoryBits returns the storage consumed by all phase tables.
func (c *Classifier) MemoryBits() int { return c.memoryBits }
