// Package bst implements the Binary Search Tree (BST) single-field lookup
// engine, the memory-efficient IP-segment algorithm of the paper's
// configurable architecture (§IV.B, §IV.C).
//
// Interpretation. The paper describes the BST only briefly ("a binary data
// structure where the left branches contain lower values than the right
// branches; the tree depth is defined by input prefixes") and notes that it
// is rebuilt in software on update ("a balanced tree algorithm can be easily
// implemented in software and the information with the new structure can be
// applied in the architecture for each rule insertion"). This implementation
// follows that split:
//
//   - The stored prefixes are converted into disjoint elementary intervals of
//     the 16-bit segment space; each interval carries the label list of every
//     prefix covering it. The interval boundaries form a sorted array — the
//     in-order layout of a perfectly balanced BST — which the software
//     controller regenerates on every update and downloads to the block.
//   - A hardware lookup is a binary search over that array. The engine is
//     provisioned for the worst-case depth of a 16-bit segment, 16 iterations
//     with one memory access each, which is the figure the paper reports in
//     Table VI ("16 per packet"); the measured average is also tracked.
//
// The pay-off mirrors the paper's: node storage is proportional to the
// number of distinct prefixes (tens of Kbits) instead of the expanded trie
// levels (hundreds of Kbits), at the cost of a serial, non-pipelined lookup.
package bst

import (
	"fmt"
	"sort"

	"sdnpc/internal/label"
)

// WorstCaseAccesses is the number of memory accesses the hardware engine is
// provisioned for: one per bisection step of a 16-bit segment (Table VI).
const WorstCaseAccesses = 16

// Config describes the engine geometry.
type Config struct {
	// KeyBits is the width of lookup keys, at most 32. The architecture uses
	// 16-bit IP segments.
	KeyBits int
	// NodeBits is the storage width of one interval node (boundary value,
	// label-list pointer and flags), used for memory accounting.
	NodeBits int
	// LabelEntryBits is the width of one stored label in the Labels memory
	// block.
	LabelEntryBits int
}

// SegmentConfig returns the architecture's default geometry for one 16-bit
// IP segment: 32-bit interval nodes and 13-bit labels.
func SegmentConfig() Config {
	return Config{KeyBits: 16, NodeBits: 32, LabelEntryBits: 13}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.KeyBits < 1 || c.KeyBits > 32 {
		return fmt.Errorf("bst: key width %d out of range [1,32]", c.KeyBits)
	}
	if c.NodeBits < 1 {
		return fmt.Errorf("bst: node width must be positive")
	}
	if c.LabelEntryBits < 1 {
		return fmt.Errorf("bst: label entry width must be positive")
	}
	return nil
}

// storedPrefix is one (prefix, label) pair held by the engine.
type storedPrefix struct {
	value    uint32
	bits     uint8
	lbl      label.Label
	priority int
}

// interval is one elementary interval [start, end] of the key space with the
// labels of every covering prefix.
type interval struct {
	start  uint32
	end    uint32
	labels *label.List
}

// Engine is a Binary Search Tree lookup engine.
type Engine struct {
	cfg      Config
	prefixes []storedPrefix
	// intervals is the sorted elementary-interval array rebuilt by the
	// software side after each update.
	intervals []interval
}

// New creates an engine with the given configuration.
func New(cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Engine{cfg: cfg}, nil
}

// MustNew is like New but panics on error.
func MustNew(cfg Config) *Engine {
	e, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return e
}

// Config returns the engine configuration.
func (e *Engine) Config() Config { return e.cfg }

func (e *Engine) maxKey() uint32 {
	if e.cfg.KeyBits == 32 {
		return ^uint32(0)
	}
	return (1 << e.cfg.KeyBits) - 1
}

func (e *Engine) checkPrefix(value uint32, bits uint8) error {
	if int(bits) > e.cfg.KeyBits {
		return fmt.Errorf("bst: prefix length %d exceeds key width %d", bits, e.cfg.KeyBits)
	}
	if value > e.maxKey() {
		return fmt.Errorf("bst: prefix value %#x exceeds key width %d", value, e.cfg.KeyBits)
	}
	return nil
}

// Insert adds a prefix carrying a label and priority and rebuilds the
// interval array (the software-side rebuild the paper describes). The
// returned count is the number of node words written to the block — the full
// interval array, since the structure is re-downloaded.
func (e *Engine) Insert(value uint32, bits uint8, lbl label.Label, priority int) (writes int, err error) {
	if err := e.checkPrefix(value, bits); err != nil {
		return 0, err
	}
	for i, p := range e.prefixes {
		if p.value == value && p.bits == bits && p.lbl == lbl {
			if priority < p.priority {
				e.prefixes[i].priority = priority
				return e.rebuild(), nil
			}
			return 0, nil
		}
	}
	e.prefixes = append(e.prefixes, storedPrefix{value: value, bits: bits, lbl: lbl, priority: priority})
	return e.rebuild(), nil
}

// Remove deletes a (prefix, label) pair and rebuilds the interval array.
func (e *Engine) Remove(value uint32, bits uint8, lbl label.Label) (writes int, err error) {
	if err := e.checkPrefix(value, bits); err != nil {
		return 0, err
	}
	for i, p := range e.prefixes {
		if p.value == value && p.bits == bits && p.lbl == lbl {
			e.prefixes = append(e.prefixes[:i], e.prefixes[i+1:]...)
			return e.rebuild(), nil
		}
	}
	return 0, fmt.Errorf("bst: prefix %#x/%d with label %d not present", value, bits, lbl)
}

// prefixRange returns the key range covered by a prefix.
func (e *Engine) prefixRange(p storedPrefix) (uint32, uint32) {
	hostBits := uint32(e.cfg.KeyBits) - uint32(p.bits)
	if hostBits >= 32 {
		return 0, e.maxKey()
	}
	size := uint32(1) << hostBits
	start := p.value &^ (size - 1)
	return start, start + size - 1
}

// rebuild regenerates the elementary-interval array from the stored
// prefixes. It returns the number of node words written (the array length),
// which is the block-download cost of the update.
func (e *Engine) rebuild() int {
	if len(e.prefixes) == 0 {
		e.intervals = nil
		return 0
	}
	// Collect interval boundaries: each prefix contributes its start and the
	// position just after its end.
	boundarySet := make(map[uint32]struct{}, 2*len(e.prefixes)+1)
	boundarySet[0] = struct{}{}
	for _, p := range e.prefixes {
		start, end := e.prefixRange(p)
		boundarySet[start] = struct{}{}
		if end < e.maxKey() {
			boundarySet[end+1] = struct{}{}
		}
	}
	boundaries := make([]uint32, 0, len(boundarySet))
	for b := range boundarySet {
		boundaries = append(boundaries, b)
	}
	sort.Slice(boundaries, func(i, j int) bool { return boundaries[i] < boundaries[j] })

	intervals := make([]interval, len(boundaries))
	for i, start := range boundaries {
		end := e.maxKey()
		if i+1 < len(boundaries) {
			end = boundaries[i+1] - 1
		}
		intervals[i] = interval{start: start, end: end, labels: &label.List{}}
	}
	// Attach covering prefixes. Elementary intervals never straddle a prefix
	// boundary, so coverage is decided by the interval start alone.
	for _, p := range e.prefixes {
		start, end := e.prefixRange(p)
		from := sort.Search(len(intervals), func(i int) bool { return intervals[i].start >= start })
		for i := from; i < len(intervals) && intervals[i].start <= end; i++ {
			intervals[i].labels.Insert(label.PriorityLabel{Label: p.lbl, Priority: p.priority})
		}
	}
	e.intervals = intervals
	return len(intervals)
}

// Lookup returns the priority-ordered list of labels of every prefix
// matching the key and the number of node-memory accesses performed by the
// binary search. The returned list is freshly allocated.
func (e *Engine) Lookup(key uint32) (*label.List, int) {
	result := &label.List{}
	return result, e.LookupInto(key, result)
}

// LookupInto is the allocation-free variant of Lookup: it resets out, fills
// it with the matching labels and returns the access count.
func (e *Engine) LookupInto(key uint32, out *label.List) int {
	out.Reset()
	if len(e.intervals) == 0 {
		return 1
	}
	accesses := 0
	lo, hi := 0, len(e.intervals)-1
	match := 0
	for lo <= hi {
		mid := (lo + hi) / 2
		accesses++
		if e.intervals[mid].start <= key {
			match = mid
			lo = mid + 1
		} else {
			hi = mid - 1
		}
	}
	out.Merge(e.intervals[match].labels)
	return accesses
}

// WorstCaseAccessesFor returns the per-packet access count the hardware is
// provisioned for (the figure used for throughput in Tables VI and VII).
func (e *Engine) WorstCaseAccessesFor() int {
	if e.cfg.KeyBits < WorstCaseAccesses {
		return e.cfg.KeyBits
	}
	return WorstCaseAccesses
}

// IntervalCount returns the number of elementary intervals currently stored.
func (e *Engine) IntervalCount() int { return len(e.intervals) }

// PrefixCount returns the number of stored (prefix, label) pairs.
func (e *Engine) PrefixCount() int { return len(e.prefixes) }

// MemoryBits returns the node storage consumed by the interval array.
func (e *Engine) MemoryBits() int { return len(e.intervals) * e.cfg.NodeBits }

// LabelListBits returns the Labels-memory storage consumed by the label
// lists attached to intervals.
func (e *Engine) LabelListBits() int {
	entries := 0
	for _, iv := range e.intervals {
		entries += iv.labels.Len()
	}
	return entries * e.cfg.LabelEntryBits
}

// Clone returns an independent copy of the engine. The stored prefixes are
// deep-copied because Insert refreshes priorities in place; the interval
// array can be shared because rebuild always replaces it wholesale with a
// freshly allocated one, never mutating an existing array or its label
// lists.
func (e *Engine) Clone() *Engine {
	return &Engine{
		cfg:       e.cfg,
		prefixes:  append([]storedPrefix(nil), e.prefixes...),
		intervals: e.intervals,
	}
}
