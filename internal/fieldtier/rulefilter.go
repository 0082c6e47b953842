package fieldtier

import (
	"errors"
	"fmt"

	"sdnpc/internal/cow"
	"sdnpc/internal/fivetuple"
	"sdnpc/internal/hw/hashunit"
	"sdnpc/internal/label"
)

// ErrRuleFilterFull is returned when the Rule Filter has no free slot for a
// new rule under the current IP algorithm selection.
var ErrRuleFilterFull = errors.New("rule filter full")

// ruleEntry is one Rule Filter slot: the rule's label combination key, its
// priority and its action. The slot layout corresponds to the
// DefaultRuleEntryBits stored word. The fields are ordered widest first and
// the 68-bit key is split into its 64-bit and 4-bit halves so a slot is 24
// bytes: the slot array is the largest thing a field engine holds.
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

// key returns the combination key the slot stores.
func (e *ruleEntry) key() label.CombinationKey { return label.KeyFromParts(e.keyHi, e.keyLo) }

// verdict returns the verdict of the rule the slot stores.
func (e *ruleEntry) verdict() fivetuple.Verdict {
	return fivetuple.Verdict{Priority: e.priority, ActionArg: e.actionArg, Action: e.action}
}

// ruleFilter is the Rule Filter memory block: an open-addressed hash table
// keyed by the 68-bit combination key produced by the hash unit, with linear
// probing and tombstone deletion. Distinct rules with identical keys
// (duplicate 5-tuple matches at different priorities) occupy distinct slots.
// A slot's index is the id the field engine answers lookups in.
type ruleFilter struct {
	hash *hashunit.Unit
	// slots is the slot array. A rule update writes one slot, so a clone
	// shares every chunk and copies the one written.
	slots cow.Array[ruleEntry]
	used  int
}

// newRuleFilter creates a rule filter with the given capacity. The hash unit
// addresses the first RuleFilterSlots slots; linear probing covers any extra
// capacity contributed by freed MBT blocks in the BST configuration.
func newRuleFilter(capacity int) *ruleFilter {
	return &ruleFilter{
		hash:  hashunit.MustNew(DefaultRuleFilterAddressBits),
		slots: cow.Make[ruleEntry](capacity),
	}
}

// usedBits returns the storage occupied by live entries.
func (rf *ruleFilter) usedBits() int { return rf.used * DefaultRuleEntryBits }

// home returns the first slot of the key's probe sequence; linear probing
// continues from it with wrap-around.
func (rf *ruleFilter) home(key label.CombinationKey) int {
	return int(rf.hash.Hash(key.Bytes())) % rf.slots.Len()
}

// next returns the slot after idx in a probe sequence.
func (rf *ruleFilter) next(idx int) int {
	if idx++; idx == rf.slots.Len() {
		return 0
	}
	return idx
}

// insert stores a rule entry. It returns the slot index, the number of
// probes taken and the number of memory writes, or ErrRuleFilterFull.
func (rf *ruleFilter) insert(key label.CombinationKey, v fivetuple.Verdict) (slot, probes, writes int, err error) {
	idx := rf.home(key)
	for probe := 0; probe < rf.slots.Len(); probe++ {
		if rf.slots.At(idx).state != slotLive {
			*rf.slots.Mut(idx) = ruleEntry{state: slotLive, keyLo: key.Lo(), keyHi: key.Hi(), priority: v.Priority, action: v.Action, actionArg: v.ActionArg}
			rf.used++
			return idx, probe + 1, 1, nil
		}
		idx = rf.next(idx)
	}
	return 0, rf.slots.Len(), 0, fmt.Errorf("%w: %d slots", ErrRuleFilterFull, rf.slots.Len())
}

// find returns the slot holding the key with the verdict v, or -1, and the
// number of probes taken.
func (rf *ruleFilter) find(key label.CombinationKey, v fivetuple.Verdict) (slot, probes int) {
	idx := rf.home(key)
	for probe := 0; probe < rf.slots.Len(); probe++ {
		e := rf.slots.At(idx)
		if e.state == slotEmpty {
			return -1, probe + 1
		}
		if e.holds(key) && e.verdict() == v {
			return idx, probe + 1
		}
		idx = rf.next(idx)
	}
	return -1, rf.slots.Len()
}

// remove turns a live slot into a tombstone.
func (rf *ruleFilter) remove(slot int) {
	rf.slots.Mut(slot).state = slotTombstone
	rf.used--
}

// lookup probes the filter for the key and returns the slot and priority of
// the best-priority entry holding it (slot -1 when no live slot does).
// probes is the number of slots read.
func (rf *ruleFilter) lookup(key label.CombinationKey) (best, priority, probes int) {
	best = -1
	idx := rf.home(key)
	for probes < rf.slots.Len() {
		probes++
		e := rf.slots.At(idx)
		if e.state == slotEmpty {
			break
		}
		if e.holds(key) && (best < 0 || e.priority < priority) {
			best, priority = idx, e.priority
		}
		idx = rf.next(idx)
	}
	return best, priority, probes
}

// live calls yield with the index and entry of every live slot, in slot
// order, reading the slots chunk by chunk.
func (rf *ruleFilter) live(yield func(slot int, e *ruleEntry)) {
	for k := 0; k<<cow.ChunkShift < rf.slots.Len(); k++ {
		chunk := rf.slots.Chunk(k)
		for i := range chunk {
			if chunk[i].state == slotLive {
				yield(k<<cow.ChunkShift+i, &chunk[i])
			}
		}
	}
}

// clone duplicates the filter for the copy-on-write update path in O(1): the
// slot chunks and the (stateless) hash unit are shared, and a write to either
// filter copies the chunk it lands in first.
func (rf *ruleFilter) clone() *ruleFilter {
	c := *rf
	c.slots = rf.slots.Clone()
	return &c
}
