package core

import (
	"errors"
	"fmt"
	"slices"

	"sdnpc/internal/fivetuple"
	"sdnpc/internal/hw/hashunit"
	"sdnpc/internal/label"
)

// ErrRuleFilterFull is returned when the Rule Filter has no free slot for a
// new rule under the current IP algorithm selection.
var ErrRuleFilterFull = errors.New("core: rule filter full")

// ruleEntry is one Rule Filter slot: the rule's label combination key, its
// priority and its action. The slot layout corresponds to the
// Config.RuleEntryBits stored word. The fields are ordered widest first and
// the 68-bit key is split into its 64-bit and 4-bit halves so a slot is 24
// bytes: the slot array is the largest thing a field tier holds.
type ruleEntry struct {
	keyLo     uint64
	priority  int
	actionArg uint32
	keyHi     uint8
	action    fivetuple.Action
	state     slotState
}

// slotState is the occupancy of one Rule Filter slot. The zero value is a
// never-used slot, which ends a probe sequence; a tombstone does not.
type slotState uint8

const (
	slotEmpty slotState = iota
	slotLive
	slotTombstone
)

// holds reports whether the slot is live and stores the key.
func (e *ruleEntry) holds(key label.CombinationKey) bool {
	return e.state == slotLive && e.keyLo == key.Lo() && e.keyHi == key.Hi()
}

// filterChunk is the unit the slot array is copied in: a rule update writes
// one slot, so a clone shares every chunk and copies the one written.
type filterChunk [chunkSlots]ruleEntry

const (
	chunkShift = 6
	chunkSlots = 1 << chunkShift
)

// ruleFilter is the Rule Filter memory block: an open-addressed hash table
// keyed by the 68-bit combination key produced by the hash unit, with linear
// probing and tombstone deletion. Distinct rules with identical keys
// (duplicate 5-tuple matches at different priorities) occupy distinct slots.
type ruleFilter struct {
	hash *hashunit.Unit
	// chunks is the slot array, slot i at chunks[i>>chunkShift][i&(chunkSlots-1)].
	// owned has one bit per chunk, set when this filter copied the chunk and
	// may write it in place; lookups never read it.
	chunks    []*filterChunk
	owned     []uint64
	slots     int
	entryBits int
	used      int
}

// emptyChunk is every chunk of a new filter: owned by none, so copied before
// the first write into it and never written itself.
var emptyChunk filterChunk

// newRuleFilter creates a rule filter with the given capacity. The hash unit
// addresses the first 2^addressBits slots; linear probing covers any extra
// capacity contributed by freed MBT blocks in the BST configuration.
func newRuleFilter(addressBits, capacity, entryBits int) *ruleFilter {
	rf := &ruleFilter{
		hash:      hashunit.MustNew(addressBits),
		chunks:    make([]*filterChunk, (capacity+chunkSlots-1)>>chunkShift),
		slots:     capacity,
		entryBits: entryBits,
	}
	rf.owned = make([]uint64, (len(rf.chunks)+63)/64)
	for c := range rf.chunks {
		rf.chunks[c] = &emptyChunk
	}
	return rf
}

// usedRules returns the number of live entries.
func (rf *ruleFilter) usedRules() int { return rf.used }

// usedBits returns the storage occupied by live entries.
func (rf *ruleFilter) usedBits() int { return rf.used * rf.entryBits }

// slot returns slot idx for reading.
func (rf *ruleFilter) slot(idx int) *ruleEntry {
	return &rf.chunks[idx>>chunkShift][idx&(chunkSlots-1)]
}

// writableSlot returns slot idx for writing, copying its chunk first when it
// is shared with the filter this one was cloned from.
func (rf *ruleFilter) writableSlot(idx int) *ruleEntry {
	c := idx >> chunkShift
	if rf.owned[c>>6]&(1<<(c&63)) == 0 {
		cp := *rf.chunks[c]
		rf.chunks[c] = &cp
		rf.owned[c>>6] |= 1 << (c & 63)
	}
	return rf.slot(idx)
}

// home returns the first slot of the key's probe sequence; linear probing
// continues from it with wrap-around.
func (rf *ruleFilter) home(key label.CombinationKey) int {
	return int(rf.hash.Hash(key.Bytes())) % rf.slots
}

// next returns the slot after idx in a probe sequence.
func (rf *ruleFilter) next(idx int) int {
	if idx++; idx == rf.slots {
		return 0
	}
	return idx
}

// insert stores a rule entry. It returns the slot index, the number of
// probes taken and the number of memory writes, or ErrRuleFilterFull.
func (rf *ruleFilter) insert(key label.CombinationKey, priority int, action fivetuple.Action, actionArg uint32) (slot, probes, writes int, err error) {
	idx := rf.home(key)
	for probe := 0; probe < rf.slots; probe++ {
		if rf.slot(idx).state != slotLive {
			*rf.writableSlot(idx) = ruleEntry{state: slotLive, keyLo: key.Lo(), keyHi: key.Hi(), priority: priority, action: action, actionArg: actionArg}
			rf.used++
			return idx, probe + 1, 1, nil
		}
		idx = rf.next(idx)
	}
	return 0, rf.slots, 0, fmt.Errorf("%w: %d slots", ErrRuleFilterFull, rf.slots)
}

// remove deletes the entry holding (key, priority). It reports whether the
// entry was found.
func (rf *ruleFilter) remove(key label.CombinationKey, priority int) (found bool, probes int) {
	idx := rf.home(key)
	for probe := 0; probe < rf.slots; probe++ {
		e := rf.slot(idx)
		if e.state == slotEmpty {
			return false, probe + 1
		}
		if e.holds(key) && e.priority == priority {
			rf.writableSlot(idx).state = slotTombstone
			rf.used--
			return true, probe + 1
		}
		idx = rf.next(idx)
	}
	return false, rf.slots
}

// lookup probes the filter for the key and returns the best-priority entry
// holding it (nil when no live slot does). probes is the number of slots
// read.
func (rf *ruleFilter) lookup(key label.CombinationKey) (best *ruleEntry, probes int) {
	idx := rf.home(key)
	for probes < rf.slots {
		probes++
		e := rf.slot(idx)
		if e.state == slotEmpty {
			break
		}
		if e.holds(key) && (best == nil || e.priority < best.priority) {
			best = e
		}
		idx = rf.next(idx)
	}
	return best, probes
}

// clone duplicates the filter for the copy-on-write update path in
// O(slots/64): the chunk table is copied, the chunks and the (stateless)
// hash unit are shared, and a write to either filter copies the chunk it
// lands in first. Both sides give up their ownership of the shared chunks —
// on the receiver a few words, written under the writer mutex, that no
// lookup reads.
func (rf *ruleFilter) clone() *ruleFilter {
	c := *rf
	c.chunks = slices.Clone(rf.chunks)
	c.owned = make([]uint64, len(rf.owned))
	clear(rf.owned)
	return &c
}
