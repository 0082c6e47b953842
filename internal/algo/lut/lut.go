// Package lut implements the register-based Look-Up Table used for the
// protocol field (§IV.C: "a simple Look-Up Table is utilized for Protocol.
// The protocol value addresses the table where the label is contained").
//
// The table has one entry per possible 8-bit protocol value plus a wildcard
// register. A lookup addresses the table with the packet's protocol value in
// a single clock cycle (§V.B) and returns at most two labels: the exact
// match, which has priority, followed by the wildcard label if a wildcard
// protocol rule exists.
package lut

import (
	"fmt"

	"sdnpc/internal/label"
)

// LookupCycles is the lookup latency of the protocol table (§V.B: "the
// protocol label search is executed in a single clock cycle").
const LookupCycles = 1

// Entries is the number of addressable protocol values.
const Entries = 256

// Table is the protocol lookup table.
type Table struct {
	// labelBits is the stored label width (2 bits in the architecture).
	labelBits int

	exact    [Entries]entrySlot
	wildcard entrySlot
}

type entrySlot struct {
	valid    bool
	lbl      label.Label
	priority int
}

// New creates an empty protocol table storing labels of the given width.
func New(labelBits int) (*Table, error) {
	if labelBits < 1 || labelBits > 16 {
		return nil, fmt.Errorf("lut: label width %d out of range [1,16]", labelBits)
	}
	return &Table{labelBits: labelBits}, nil
}

// MustNew is like New but panics on error.
func MustNew(labelBits int) *Table {
	t, err := New(labelBits)
	if err != nil {
		panic(err)
	}
	return t
}

// InsertExact installs the label for an exact protocol value. Re-inserting
// the same value refreshes the label and keeps the better (smaller)
// priority; an insert that changes nothing costs no memory write.
func (t *Table) InsertExact(value uint8, lbl label.Label, priority int) (writes int) {
	writes = t.install(&t.exact[value], lbl, priority)
	return writes
}

// InsertWildcard installs the label of the wildcard protocol match.
func (t *Table) InsertWildcard(lbl label.Label, priority int) (writes int) {
	writes = t.install(&t.wildcard, lbl, priority)
	return writes
}

func (t *Table) install(slot *entrySlot, lbl label.Label, priority int) int {
	if slot.valid && slot.lbl == lbl && slot.priority <= priority {
		return 0
	}
	if slot.valid && slot.lbl == lbl {
		slot.priority = priority
	} else {
		*slot = entrySlot{valid: true, lbl: lbl, priority: priority}
	}
	return 1
}

// RemoveExact clears the entry of an exact protocol value.
func (t *Table) RemoveExact(value uint8) (writes int, err error) {
	if !t.exact[value].valid {
		return 0, fmt.Errorf("lut: protocol %d not present", value)
	}
	t.exact[value] = entrySlot{}
	return 1, nil
}

// RemoveWildcard clears the wildcard entry.
func (t *Table) RemoveWildcard() (writes int, err error) {
	if !t.wildcard.valid {
		return 0, fmt.Errorf("lut: wildcard protocol not present")
	}
	t.wildcard = entrySlot{}
	return 1, nil
}

// Lookup returns the matching labels for the protocol value — the exact
// label first, then the wildcard label — and the number of memory accesses
// (always one: the table is read once; the wildcard register is combinational
// logic).
func (t *Table) Lookup(value uint8) (*label.List, int) {
	result := &label.List{}
	return result, t.LookupInto(value, result)
}

// LookupInto is the allocation-free variant of Lookup: it resets out, fills
// it with the matching labels and returns the access count.
func (t *Table) LookupInto(value uint8, out *label.List) int {
	out.Reset()
	if t.exact[value].valid {
		// The exact match takes the first position regardless of rule
		// priority (§IV.C.1: "the priority label for Protocol lookup is
		// determined by the exact matching value").
		out.Insert(label.PriorityLabel{Label: t.exact[value].lbl, Priority: 0})
	}
	if t.wildcard.valid {
		out.Insert(label.PriorityLabel{Label: t.wildcard.lbl, Priority: 1})
	}
	return 1
}

// EntryCount returns the number of valid exact entries (plus one if the
// wildcard is set).
func (t *Table) EntryCount() int {
	count := 0
	for _, s := range t.exact {
		if s.valid {
			count++
		}
	}
	if t.wildcard.valid {
		count++
	}
	return count
}

// MemoryBits returns the storage consumed by the table: every addressable
// entry holds a label and a valid flag, plus the wildcard register.
func (t *Table) MemoryBits() int {
	return (Entries + 1) * (t.labelBits + 1)
}

// Clone returns an independent copy of the table: the slot arrays are plain
// values, so a field-by-field copy suffices.
func (t *Table) Clone() *Table {
	return &Table{
		labelBits: t.labelBits,
		exact:     t.exact,
		wildcard:  t.wildcard,
	}
}
