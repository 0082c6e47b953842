package rfc

import (
	"fmt"
	"sort"

	"sdnpc/internal/label"
)

// SegmentTable is a single-field RFC reduction over one key segment: the
// phase-0 machinery of Recursive Flow Classification applied to a single
// chunk (§ "Phase 0" of Gupta & McKeown). Every stored prefix contributes an
// interval of the key space; the software side sweeps the interval
// boundaries, collapses equal label sets into equivalence classes and
// downloads a direct-indexed value→class table. A hardware lookup is then a
// single memory access — RFC's classic trade of very fast lookups against a
// large precomputed table, here available as a pluggable IP-segment engine.
//
// Like the BST engine (and unlike the incrementally updatable trie), the
// structure is rebuilt in software on update and re-downloaded; the reported
// write cost of an update is therefore the full table size. The rebuild is
// deferred until the next lookup so bulk rule installation does not pay the
// sweep per rule.
type SegmentTable struct {
	keyBits        int
	labelEntryBits int

	prefixes []segPrefix
	dirty    bool

	// table maps every key value to its equivalence-class ID; classes holds
	// the per-class priority-ordered label lists.
	table        []uint32
	classes      []*label.List
	classEntries int
}

// segPrefix is one stored (prefix, label) pair.
type segPrefix struct {
	value    uint32
	bits     uint8
	lbl      label.Label
	priority int
}

// NewSegmentTable creates an empty single-field RFC table over keys of the
// given width, storing labels of labelEntryBits in the Labels memory.
func NewSegmentTable(keyBits, labelEntryBits int) (*SegmentTable, error) {
	if keyBits < 1 || keyBits > 16 {
		return nil, fmt.Errorf("rfc: segment key width %d out of range [1,16]", keyBits)
	}
	if labelEntryBits < 1 {
		return nil, fmt.Errorf("rfc: label entry width must be positive")
	}
	return &SegmentTable{keyBits: keyBits, labelEntryBits: labelEntryBits}, nil
}

// KeyBits returns the key width.
func (t *SegmentTable) KeyBits() int { return t.keyBits }

func (t *SegmentTable) domain() int { return 1 << t.keyBits }

func (t *SegmentTable) checkPrefix(value uint32, bits uint8) error {
	if int(bits) > t.keyBits {
		return fmt.Errorf("rfc: prefix length %d exceeds key width %d", bits, t.keyBits)
	}
	if value >= uint32(t.domain()) {
		return fmt.Errorf("rfc: prefix value %#x exceeds key width %d", value, t.keyBits)
	}
	return nil
}

// Insert stores a prefix carrying a label and priority. Re-inserting a
// stored (prefix, label) pair refreshes the priority, keeping the better
// one. The returned count is the phase-0 table download size — the structure
// is regenerated and re-downloaded, as with the BST's software rebuild.
func (t *SegmentTable) Insert(value uint32, bits uint8, lbl label.Label, priority int) (writes int, err error) {
	if err := t.checkPrefix(value, bits); err != nil {
		return 0, err
	}
	for i, p := range t.prefixes {
		if p.value == value && p.bits == bits && p.lbl == lbl {
			if priority >= p.priority {
				return 0, nil
			}
			t.prefixes[i].priority = priority
			return t.invalidate(), nil
		}
	}
	t.prefixes = append(t.prefixes, segPrefix{value: value, bits: bits, lbl: lbl, priority: priority})
	return t.invalidate(), nil
}

// Remove deletes a stored (prefix, label) pair.
func (t *SegmentTable) Remove(value uint32, bits uint8, lbl label.Label) (writes int, err error) {
	if err := t.checkPrefix(value, bits); err != nil {
		return 0, err
	}
	for i, p := range t.prefixes {
		if p.value == value && p.bits == bits && p.lbl == lbl {
			t.prefixes = append(t.prefixes[:i], t.prefixes[i+1:]...)
			return t.invalidate(), nil
		}
	}
	return 0, fmt.Errorf("rfc: prefix %#x/%d with label %d not present", value, bits, lbl)
}

// invalidate marks the table for regeneration and returns the download cost
// of the update: the full direct-indexed table.
func (t *SegmentTable) invalidate() int {
	t.dirty = true
	return t.domain()
}

// prefixRange returns the inclusive key range covered by a prefix.
func (t *SegmentTable) prefixRange(p segPrefix) (uint32, uint32) {
	span := uint32(1) << (uint32(t.keyBits) - uint32(p.bits))
	start := p.value &^ (span - 1)
	return start, start + span - 1
}

// rebuild regenerates the equivalence-class table from the stored prefixes
// with a boundary sweep, mirroring buildPhase0.
func (t *SegmentTable) rebuild() {
	t.dirty = false
	t.classEntries = 0
	if len(t.prefixes) == 0 {
		t.table = nil
		t.classes = nil
		return
	}
	if t.table == nil {
		t.table = make([]uint32, t.domain())
	}

	boundarySet := map[uint32]struct{}{0: {}}
	for _, p := range t.prefixes {
		start, end := t.prefixRange(p)
		boundarySet[start] = struct{}{}
		if end+1 < uint32(t.domain()) {
			boundarySet[end+1] = struct{}{}
		}
	}
	boundaries := make([]uint32, 0, len(boundarySet))
	for b := range boundarySet {
		boundaries = append(boundaries, b)
	}
	sort.Slice(boundaries, func(i, j int) bool { return boundaries[i] < boundaries[j] })

	t.classes = nil
	classIndex := make(map[string]uint32)
	for bi, start := range boundaries {
		end := uint32(t.domain()) - 1
		if bi+1 < len(boundaries) {
			end = boundaries[bi+1] - 1
		}
		// Elementary intervals never straddle a prefix boundary, so coverage
		// is decided by the interval start alone.
		list := &label.List{}
		for _, p := range t.prefixes {
			lo, hi := t.prefixRange(p)
			if lo <= start && start <= hi {
				list.Insert(label.PriorityLabel{Label: p.lbl, Priority: p.priority})
			}
		}
		key := classKey(list)
		id, ok := classIndex[key]
		if !ok {
			id = uint32(len(t.classes))
			classIndex[key] = id
			t.classes = append(t.classes, list)
			t.classEntries += list.Len()
		}
		for v := start; v <= end; v++ {
			t.table[v] = id
		}
	}
}

// classKey canonicalises a label list for equivalence-class deduplication.
func classKey(l *label.List) string {
	items := l.Items()
	buf := make([]byte, 0, len(items)*6)
	for _, it := range items {
		buf = append(buf, byte(it.Label), byte(it.Label>>8),
			byte(it.Priority), byte(it.Priority>>8), byte(it.Priority>>16), byte(it.Priority>>24))
	}
	return string(buf)
}

// Lookup returns the priority-ordered label list of every stored prefix
// matching the key and the number of memory accesses: one, the direct table
// index. The returned list is freshly allocated.
func (t *SegmentTable) Lookup(key uint32) (*label.List, int) {
	result := &label.List{}
	return result, t.LookupInto(key, result)
}

// LookupInto is the allocation-free variant of Lookup: it resets out, fills
// it with the matching labels and returns the access count. The table must
// be clean (Prepare) for the call to be allocation-free.
func (t *SegmentTable) LookupInto(key uint32, out *label.List) int {
	if t.dirty {
		t.rebuild()
	}
	out.Reset()
	if len(t.table) == 0 || key >= uint32(t.domain()) {
		return 1
	}
	out.Merge(t.classes[t.table[key]])
	return 1
}

// ClassCount returns the number of equivalence classes.
func (t *SegmentTable) ClassCount() int {
	if t.dirty {
		t.rebuild()
	}
	return len(t.classes)
}

// PrefixCount returns the number of stored (prefix, label) pairs.
func (t *SegmentTable) PrefixCount() int { return len(t.prefixes) }

// MemoryBits returns the node storage consumed by the direct-indexed table:
// one class ID per addressable key value.
func (t *SegmentTable) MemoryBits() int {
	if t.dirty {
		t.rebuild()
	}
	if len(t.classes) == 0 {
		return 0
	}
	return t.domain() * ceilLog2(len(t.classes)+1)
}

// LabelListBits returns the Labels-memory storage consumed by the per-class
// label lists.
func (t *SegmentTable) LabelListBits() int {
	if t.dirty {
		t.rebuild()
	}
	return t.classEntries * t.labelEntryBits
}

// Prepare forces the deferred rebuild so that subsequent Lookups are pure
// reads. The classifier calls it before publishing a snapshot to concurrent
// readers; a dirty table reaching a reader would make Lookup's lazy rebuild
// a data race.
func (t *SegmentTable) Prepare() {
	if t.dirty {
		t.rebuild()
	}
}

// Clone returns an independent copy of the table. The direct-indexed class
// table must be deep-copied because rebuild reuses the existing array in
// place; the per-class label lists are cloned for the same reason the
// prefixes are — the copy may be mutated while readers still traverse the
// original. The table is prepared first so the copy starts clean.
func (t *SegmentTable) Clone() *SegmentTable {
	t.Prepare()
	c := &SegmentTable{
		keyBits:        t.keyBits,
		labelEntryBits: t.labelEntryBits,
		prefixes:       append([]segPrefix(nil), t.prefixes...),
		table:          append([]uint32(nil), t.table...),
		classes:        make([]*label.List, len(t.classes)),
		classEntries:   t.classEntries,
	}
	for i, l := range t.classes {
		c.classes[i] = l.Clone()
	}
	return c
}
