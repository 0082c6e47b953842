// Package segtrie implements the Segment Trie port-lookup algorithm used by
// the Option 1 (4-level) and Option 2 (5-level) single-field combinations
// evaluated in Table I of the paper.
//
// A port-range rule is decomposed into the minimal set of aligned binary
// segments (the classic range-to-prefix expansion) and each segment is
// stored in a fixed-stride trie over the 16-bit port space. A lookup walks
// the trie once — at most one node access per level — and returns the labels
// of every range covering the port, ordered by rule priority.
//
// The engine reuses the Multi-Bit Trie machinery of internal/algo/mbt for
// the underlying trie; what distinguishes the segment trie is the
// range-to-segment decomposition layer and the port-oriented geometry.
package segtrie

import (
	"fmt"

	"sdnpc/internal/algo/mbt"
	"sdnpc/internal/fivetuple"
	"sdnpc/internal/label"
)

// PortBits is the width of the port key space.
const PortBits = 16

// Engine is a segment-trie port lookup engine.
type Engine struct {
	levels int
	trie   *mbt.Engine
	// segmentsPerRange remembers the expansion of each stored range so that
	// removal deletes exactly the segments insertion created.
	segmentsPerRange map[fivetuple.PortRange][]Segment
}

// Segment is one aligned binary block (value, prefix length) of a
// decomposed port range.
type Segment struct {
	Value uint32
	Bits  uint8
}

// New creates a segment trie with the given number of levels (the trie
// strides split the 16 port bits as evenly as possible).
func New(levels int) (*Engine, error) {
	if levels < 1 || levels > PortBits {
		return nil, fmt.Errorf("segtrie: level count %d out of range [1,%d]", levels, PortBits)
	}
	cfg := mbt.UniformConfig(PortBits, levels)
	cfg.LabelEntryBits = 7 // port labels are 7 bits wide (§IV.C.1)
	trie, err := mbt.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("segtrie: %w", err)
	}
	return &Engine{
		levels:           levels,
		trie:             trie,
		segmentsPerRange: make(map[fivetuple.PortRange][]Segment),
	}, nil
}

// MustNew is like New but panics on error.
func MustNew(levels int) *Engine {
	e, err := New(levels)
	if err != nil {
		panic(err)
	}
	return e
}

// Levels returns the number of trie levels.
func (e *Engine) Levels() int { return e.levels }

// RangeToSegments decomposes an inclusive port range into the minimal set of
// aligned binary segments (value, prefix length) covering exactly the range.
func RangeToSegments(rng fivetuple.PortRange) []Segment {
	var out []Segment
	lo := uint32(rng.Lo)
	hi := uint32(rng.Hi)
	for lo <= hi {
		// The largest aligned block starting at lo that does not overshoot hi.
		size := uint32(1)
		for {
			next := size << 1
			if lo&(next-1) != 0 || lo+next-1 > hi {
				break
			}
			size = next
		}
		bits := uint8(PortBits)
		for s := size; s > 1; s >>= 1 {
			bits--
		}
		out = append(out, Segment{Value: lo, Bits: bits})
		if lo+size-1 == uint32(fivetuple.MaxPort) {
			break
		}
		lo += size
	}
	return out
}

// Insert stores a port range with its label and rule priority. The returned
// count is the number of trie-entry writes performed.
func (e *Engine) Insert(rng fivetuple.PortRange, lbl label.Label, priority int) (writes int, err error) {
	if _, exists := e.segmentsPerRange[rng]; exists {
		// The range (hence its label) is already stored; refresh priorities.
		for _, seg := range e.segmentsPerRange[rng] {
			w, err := e.trie.Insert(seg.Value, seg.Bits, lbl, priority)
			if err != nil {
				return writes, err
			}
			writes += w
		}
		return writes, nil
	}
	segments := RangeToSegments(rng)
	for _, seg := range segments {
		w, err := e.trie.Insert(seg.Value, seg.Bits, lbl, priority)
		if err != nil {
			return writes, err
		}
		writes += w
	}
	e.segmentsPerRange[rng] = segments
	return writes, nil
}

// Remove deletes a stored port range and its label.
func (e *Engine) Remove(rng fivetuple.PortRange, lbl label.Label) (writes int, err error) {
	segments, exists := e.segmentsPerRange[rng]
	if !exists {
		return 0, fmt.Errorf("segtrie: range %s not present", rng)
	}
	for _, seg := range segments {
		w, err := e.trie.Remove(seg.Value, seg.Bits, lbl)
		if err != nil {
			return writes, err
		}
		writes += w
	}
	delete(e.segmentsPerRange, rng)
	return writes, nil
}

// Lookup returns the labels of every stored range covering the port, ordered
// by rule priority, and the number of trie-node accesses performed.
func (e *Engine) Lookup(port uint16) (*label.List, int) {
	return e.trie.Lookup(uint32(port))
}

// LookupInto is the allocation-free variant of Lookup: it resets out, fills
// it with the matching labels and returns the access count.
func (e *Engine) LookupInto(port uint16, out *label.List) int {
	return e.trie.LookupInto(uint32(port), out)
}

// WorstCaseAccesses returns the maximum trie-node accesses per lookup (the
// level count).
func (e *Engine) WorstCaseAccesses() int { return e.levels }

// RangeCount returns the number of stored ranges.
func (e *Engine) RangeCount() int { return len(e.segmentsPerRange) }

// MemoryBits returns the trie-node storage consumed.
func (e *Engine) MemoryBits() int { return e.trie.MemoryBits() }

// LabelListBits returns the Labels-memory storage consumed.
func (e *Engine) LabelListBits() int { return e.trie.LabelListBits() }

// Clone returns an independent copy of the engine: the underlying trie is
// shared until either side writes it (mbt.Engine.Clone) and the
// range-expansion memo copied (its segment slices are never written once
// stored, so sharing them is safe).
func (e *Engine) Clone() *Engine {
	memo := make(map[fivetuple.PortRange][]Segment, len(e.segmentsPerRange))
	for rng, segs := range e.segmentsPerRange {
		memo[rng] = segs
	}
	return &Engine{levels: e.levels, trie: e.trie.Clone(), segmentsPerRange: memo}
}
