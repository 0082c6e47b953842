// Package label implements the label method at the heart of the paper's
// architecture (§III.C, §IV.A).
//
// Every unique rule-field value is tagged with a small integer label so that
// rules sharing a field value share storage. The architecture splits each
// 32-bit IP address into two 16-bit segments, giving seven label dimensions:
//
//	source IP high/low, destination IP high/low  — 13-bit labels
//	source port, destination port                —  7-bit labels
//	protocol                                     —  2-bit labels
//
// which concatenate into the 68-bit combination key (4×13 + 2×7 + 2 = 68)
// hashed by the hardware to obtain the Highest Priority Matching Rule
// address.
//
// Label tables carry a reference counter per label so that rule insertion
// and deletion are incremental: inserting a rule whose field value is already
// labelled only increments the counter, and a label is recycled only when its
// counter returns to zero (Fig. 4 of the paper).
package label

import (
	"errors"
	"fmt"
	"slices"
)

// Label is a small integer identifying one unique rule-field value within a
// dimension. The zero value is a valid label.
type Label uint16

// Dimension identifies one of the seven label dimensions of the architecture.
type Dimension uint8

// The seven label dimensions, in the order they are packed into the
// combination key (most significant first).
const (
	DimSrcIPHigh Dimension = iota + 1
	DimSrcIPLow
	DimDstIPHigh
	DimDstIPLow
	DimSrcPort
	DimDstPort
	DimProtocol
)

// NumDimensions is the number of label dimensions.
const NumDimensions = 7

// Dimensions lists every dimension in key-packing order. The result is
// backed by a package variable so per-packet iteration does not allocate;
// callers must not mutate it.
func Dimensions() []Dimension { return allDimensions[:] }

var allDimensions = [...]Dimension{
	DimSrcIPHigh, DimSrcIPLow, DimDstIPHigh, DimDstIPLow,
	DimSrcPort, DimDstPort, DimProtocol,
}

// Bits returns the label width of the dimension in bits, as specified in
// §IV.C.1 of the paper: 13 bits per IP segment, 7 bits per port, 2 bits for
// the protocol.
func (d Dimension) Bits() int {
	switch d {
	case DimSrcIPHigh, DimSrcIPLow, DimDstIPHigh, DimDstIPLow:
		return 13
	case DimSrcPort, DimDstPort:
		return 7
	case DimProtocol:
		return 2
	default:
		return 0
	}
}

// Capacity returns the number of distinct labels the dimension can hold.
func (d Dimension) Capacity() int { return 1 << d.Bits() }

// String names the dimension.
func (d Dimension) String() string {
	switch d {
	case DimSrcIPHigh:
		return "srcIP.hi"
	case DimSrcIPLow:
		return "srcIP.lo"
	case DimDstIPHigh:
		return "dstIP.hi"
	case DimDstIPLow:
		return "dstIP.lo"
	case DimSrcPort:
		return "srcPort"
	case DimDstPort:
		return "dstPort"
	case DimProtocol:
		return "protocol"
	default:
		return fmt.Sprintf("Dimension(%d)", uint8(d))
	}
}

// KeyBits is the width of the combination key obtained by concatenating the
// highest-priority label of every dimension (68 bits in the paper).
const KeyBits = 4*13 + 2*7 + 2

// ErrTableFull is returned when a dimension has run out of label space.
var ErrTableFull = errors.New("label: table full")

// ErrUnknownValue is returned when releasing or looking up a field value that
// has no label.
var ErrUnknownValue = errors.New("label: unknown field value")

// Table is the label table of one dimension: the mapping from unique field
// values to labels, with the uses of every value — one per rule carrying it,
// recorded by the rule's priority. The number of uses is the reference
// counter of the incremental update procedure of Fig. 4; the best (smallest)
// priority among them is what orders the label in the engines' lists (§IV.A:
// "the lists of labels are reorganized according to the priority rule").
//
// Table is not safe for concurrent use; the controller owns it exclusively.
type Table[V comparable] struct {
	dim Dimension

	entries map[V]entry
	// free holds labels recycled by Release, reused before fresh allocation
	// so the label space stays dense.
	free []Label
	next Label
}

// entry is one labelled field value. priorities lists the priority of every
// rule using the value in ascending order, duplicates included.
type entry struct {
	label      Label
	priorities []int
}

// NewTable creates an empty label table for the given dimension.
func NewTable[V comparable](dim Dimension) *Table[V] {
	return &Table[V]{dim: dim, entries: make(map[V]entry)}
}

// Dimension returns the dimension this table labels.
func (t *Table[V]) Dimension() Dimension { return t.dim }

// Len returns the number of live labels (unique field values) in the table.
func (t *Table[V]) Len() int { return len(t.entries) }

// Acquire records one more use of the field value, by a rule of the given
// priority, and returns the value's label, allocating a new label when the
// value is unseen. The second result reports whether a new label was created
// — the signal telling the controller it must also install the value into
// the field's lookup structure (Fig. 4: "new label creation").
func (t *Table[V]) Acquire(value V, priority int) (lbl Label, created bool, err error) {
	e, ok := t.entries[value]
	if !ok {
		if len(t.entries) >= t.dim.Capacity() {
			return 0, false, fmt.Errorf("%w: dimension %s holds %d labels (%d bits)",
				ErrTableFull, t.dim, len(t.entries), t.dim.Bits())
		}
		if n := len(t.free); n > 0 {
			e.label = t.free[n-1]
			t.free = t.free[:n-1]
		} else {
			e.label = t.next
			t.next++
		}
	}
	at, _ := slices.BinarySearch(e.priorities, priority)
	e.priorities = slices.Insert(e.priorities, at, priority)
	t.entries[value] = e
	return e.label, !ok, nil
}

// Release drops one use of the field value at the given priority. When it
// was the last the label is removed and recycled, and the second result is
// true — the signal telling the controller to remove the value from the
// field's lookup structure.
func (t *Table[V]) Release(value V, priority int) (lbl Label, removed bool, err error) {
	e, ok := t.entries[value]
	at, used := slices.BinarySearch(e.priorities, priority)
	if !ok || !used {
		return 0, false, fmt.Errorf("%w: %v at priority %d in dimension %s", ErrUnknownValue, value, priority, t.dim)
	}
	if len(e.priorities) == 1 {
		delete(t.entries, value)
		t.free = append(t.free, e.label)
		return e.label, true, nil
	}
	e.priorities = slices.Delete(e.priorities, at, at+1)
	t.entries[value] = e
	return e.label, false, nil
}

// Lookup returns the label of a field value without touching its uses.
func (t *Table[V]) Lookup(value V) (Label, bool) {
	e, ok := t.entries[value]
	return e.label, ok
}

// RefCount returns the reference counter of the field value's label — the
// number of rules using it — or 0 when the value is unlabelled.
func (t *Table[V]) RefCount(value V) int { return len(t.entries[value].priorities) }

// Best returns the best (smallest) priority among the rules using the field
// value; ok is false when the value is unlabelled.
func (t *Table[V]) Best(value V) (priority int, ok bool) {
	e, ok := t.entries[value]
	if !ok {
		return 0, false
	}
	return e.priorities[0], true
}

// Value returns the field value a label currently identifies.
func (t *Table[V]) Value(lbl Label) (value V, ok bool) {
	for v, e := range t.entries {
		if e.label == lbl {
			return v, true
		}
	}
	return value, false
}

// Values returns every labelled field value (unordered).
func (t *Table[V]) Values() []V {
	out := make([]V, 0, len(t.entries))
	for v := range t.entries {
		out = append(out, v)
	}
	return out
}

// StorageBits estimates the memory footprint of the label table in bits: one
// label plus one reference counter per live entry. Counter width follows the
// architecture's 16-bit update counters.
func (t *Table[V]) StorageBits() int {
	const counterBits = 16
	return t.Len() * (t.dim.Bits() + counterBits)
}

// Bank groups the seven per-dimension label tables of one classifier
// instance.
type Bank[V comparable] struct {
	tables map[Dimension]*Table[V]
}

// NewBank creates a bank with an empty table per dimension.
func NewBank[V comparable]() *Bank[V] {
	b := &Bank[V]{tables: make(map[Dimension]*Table[V], NumDimensions)}
	for _, d := range Dimensions() {
		b.tables[d] = NewTable[V](d)
	}
	return b
}

// Table returns the table of the given dimension. It panics on an unknown
// dimension, which always indicates a programming error.
func (b *Bank[V]) Table(d Dimension) *Table[V] {
	t, ok := b.tables[d]
	if !ok {
		panic(fmt.Sprintf("label: unknown dimension %v", d))
	}
	return t
}

// TotalLabels returns the number of live labels across all dimensions.
func (b *Bank[V]) TotalLabels() int {
	total := 0
	for _, t := range b.tables {
		total += t.Len()
	}
	return total
}

// StorageBits returns the summed footprint of every table in the bank.
func (b *Bank[V]) StorageBits() int {
	total := 0
	for _, t := range b.tables {
		total += t.StorageBits()
	}
	return total
}
