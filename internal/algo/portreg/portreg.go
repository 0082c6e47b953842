// Package portreg implements the register bank used for transport-port
// lookup (§IV.C: "Registers utilized for Port field lookup contain
// information about the port values defined in range, high value and low
// value of port field rule, and the corresponding label").
//
// Each register holds a port range [Lo, Hi] and its label. A lookup compares
// the packet's port against every register in parallel and returns the
// matching labels ordered by specificity, following the priority rule of
// §IV.C.1 and the example of Table IV: exact matches come first, then range
// matches from tightest to widest — so for a destination port of 7812
// against the rules of Table IV the labels come out in the order B, C, A.
//
// The lookup produces its labels in two clock cycles (§V.B): one to compare
// all registers, one to priority-encode the result.
package portreg

import (
	"fmt"

	"sdnpc/internal/fivetuple"
	"sdnpc/internal/label"
)

// LookupCycles is the lookup latency of the port register bank (§V.B).
const LookupCycles = 2

// Bank is the port-range register bank for one port dimension.
type Bank struct {
	// capacity is the number of physical registers provisioned; the label
	// width (7 bits) bounds it at 128 distinct port values.
	capacity  int
	labelBits int

	entries []regEntry
}

type regEntry struct {
	rng      fivetuple.PortRange
	lbl      label.Label
	priority int
}

// New creates a register bank with the given number of registers and label
// width.
func New(capacity, labelBits int) (*Bank, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("portreg: capacity %d must be positive", capacity)
	}
	if labelBits < 1 || labelBits > 16 {
		return nil, fmt.Errorf("portreg: label width %d out of range [1,16]", labelBits)
	}
	if capacity > 1<<labelBits {
		return nil, fmt.Errorf("portreg: capacity %d exceeds label space of %d bits", capacity, labelBits)
	}
	return &Bank{capacity: capacity, labelBits: labelBits}, nil
}

// MustNew is like New but panics on error.
func MustNew(capacity, labelBits int) *Bank {
	b, err := New(capacity, labelBits)
	if err != nil {
		panic(err)
	}
	return b
}

// Default returns the architecture's default port bank: 128 registers with
// 7-bit labels (§IV.C.1).
func Default() *Bank {
	return MustNew(128, 7)
}

// ErrBankFull is returned when every physical register is occupied.
var ErrBankFull = fmt.Errorf("portreg: register bank full")

// Insert installs a port range with its label and rule priority. Inserting a
// range that is already present refreshes its priority (keeping the better
// one) at no register cost.
func (b *Bank) Insert(rng fivetuple.PortRange, lbl label.Label, priority int) (writes int, err error) {
	for i, e := range b.entries {
		if e.rng == rng {
			if e.lbl != lbl || priority < e.priority {
				b.entries[i].lbl = lbl
				if priority < e.priority {
					b.entries[i].priority = priority
				}
				return 1, nil
			}
			return 0, nil
		}
	}
	if len(b.entries) >= b.capacity {
		return 0, fmt.Errorf("%w: %d registers", ErrBankFull, b.capacity)
	}
	b.entries = append(b.entries, regEntry{rng: rng, lbl: lbl, priority: priority})
	return 1, nil
}

// Remove deletes the register holding the given range.
func (b *Bank) Remove(rng fivetuple.PortRange) (writes int, err error) {
	for i, e := range b.entries {
		if e.rng == rng {
			b.entries = append(b.entries[:i], b.entries[i+1:]...)
			return 1, nil
		}
	}
	return 0, fmt.Errorf("portreg: range %s not present", rng)
}

// Lookup compares the port against every register in parallel and returns
// the matching labels ordered exact-first then tightest-range-first (the
// Table IV priority rule), together with the number of register-bank
// accesses (one: all registers are read in the same cycle).
func (b *Bank) Lookup(port uint16) (*label.List, int) {
	result := &label.List{}
	return result, b.LookupInto(port, result)
}

// LookupInto is the allocation-free variant of Lookup: it resets out, fills
// it with the matching labels and returns the access count.
func (b *Bank) LookupInto(port uint16, out *label.List) int {
	out.Reset()
	for _, e := range b.entries {
		if !e.rng.Matches(port) {
			continue
		}
		// Specificity ordering: the list priority is the range width, so an
		// exact match (width 1) always precedes wider ranges and the
		// wildcard comes last. Ties keep the earlier-inserted register.
		out.Insert(label.PriorityLabel{Label: e.lbl, Priority: int(e.rng.Width())})
	}
	return 1
}

// Ranges returns the stored ranges in register order.
func (b *Bank) Ranges() []fivetuple.PortRange {
	out := make([]fivetuple.PortRange, len(b.entries))
	for i, e := range b.entries {
		out[i] = e.rng
	}
	return out
}

// Len returns the number of occupied registers.
func (b *Bank) Len() int { return len(b.entries) }

// Capacity returns the number of physical registers.
func (b *Bank) Capacity() int { return b.capacity }

// RegisterBits returns the width of one register: low value, high value and
// label.
func (b *Bank) RegisterBits() int { return 16 + 16 + b.labelBits }

// MemoryBits returns the total register storage provisioned for the bank.
// Port matching uses logic registers rather than block RAM, so this figure
// feeds the register count of the synthesis estimate rather than the memory
// bit count.
func (b *Bank) MemoryBits() int { return b.capacity * b.RegisterBits() }

// Clone returns an independent copy of the bank: the register file is
// copied because Insert refreshes priorities in place.
func (b *Bank) Clone() *Bank {
	return &Bank{
		capacity:  b.capacity,
		labelBits: b.labelBits,
		entries:   append([]regEntry(nil), b.entries...),
	}
}
