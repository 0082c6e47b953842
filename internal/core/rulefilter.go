package core

import (
	"errors"
	"fmt"

	"sdnpc/internal/fivetuple"
	"sdnpc/internal/hw/hashunit"
	"sdnpc/internal/label"
)

// ErrRuleFilterFull is returned when the Rule Filter has no free slot for a
// new rule under the current IP algorithm selection.
var ErrRuleFilterFull = errors.New("core: rule filter full")

// ruleEntry is one Rule Filter slot: the rule's label combination key, its
// priority and its action. The slot layout corresponds to the
// Config.RuleEntryBits stored word.
type ruleEntry struct {
	valid     bool
	tombstone bool
	key       label.CombinationKey
	priority  int
	action    fivetuple.Action
	actionArg uint32
}

// ruleFilter is the Rule Filter memory block: an open-addressed hash table
// keyed by the 68-bit combination key produced by the hash unit, with linear
// probing and tombstone deletion. Distinct rules with identical keys
// (duplicate 5-tuple matches at different priorities) occupy distinct slots.
type ruleFilter struct {
	hash      *hashunit.Unit
	entries   []ruleEntry
	entryBits int
	used      int
}

// newRuleFilter creates a rule filter with the given capacity. The hash unit
// addresses the first 2^addressBits slots; linear probing covers any extra
// capacity contributed by freed MBT blocks in the BST configuration.
func newRuleFilter(addressBits, capacity, entryBits int) *ruleFilter {
	return &ruleFilter{
		hash:      hashunit.MustNew(addressBits),
		entries:   make([]ruleEntry, capacity),
		entryBits: entryBits,
	}
}

// capacityRules returns the number of slots.
func (rf *ruleFilter) capacityRules() int { return len(rf.entries) }

// usedRules returns the number of live entries.
func (rf *ruleFilter) usedRules() int { return rf.used }

// provisionedBits returns the storage provisioned for the base (hash
// addressable) region of the filter.
func (rf *ruleFilter) provisionedBits() int { return len(rf.entries) * rf.entryBits }

// usedBits returns the storage occupied by live entries.
func (rf *ruleFilter) usedBits() int { return rf.used * rf.entryBits }

// slotFor returns the probe-sequence slot index for the key.
func (rf *ruleFilter) slotFor(key label.CombinationKey, probe int) int {
	base := int(rf.hash.Hash(key.Bytes()))
	return (base + probe) % len(rf.entries)
}

// insert stores a rule entry. It returns the slot index, the number of
// probes taken and the number of memory writes, or ErrRuleFilterFull.
func (rf *ruleFilter) insert(key label.CombinationKey, priority int, action fivetuple.Action, actionArg uint32) (slot, probes, writes int, err error) {
	for probe := 0; probe < len(rf.entries); probe++ {
		idx := rf.slotFor(key, probe)
		e := &rf.entries[idx]
		if !e.valid || e.tombstone {
			*e = ruleEntry{valid: true, key: key, priority: priority, action: action, actionArg: actionArg}
			rf.used++
			return idx, probe + 1, 1, nil
		}
	}
	return 0, len(rf.entries), 0, fmt.Errorf("%w: %d slots", ErrRuleFilterFull, len(rf.entries))
}

// remove deletes the entry holding (key, priority). It reports whether the
// entry was found.
func (rf *ruleFilter) remove(key label.CombinationKey, priority int) (found bool, probes int) {
	for probe := 0; probe < len(rf.entries); probe++ {
		idx := rf.slotFor(key, probe)
		e := &rf.entries[idx]
		if !e.valid {
			return false, probe + 1
		}
		if !e.tombstone && e.key == key && e.priority == priority {
			e.tombstone = true
			rf.used--
			return true, probe + 1
		}
	}
	return false, len(rf.entries)
}

// lookup probes the filter for the key and returns the best-priority entry
// holding it. probes is the number of slots read.
func (rf *ruleFilter) lookup(key label.CombinationKey) (entry ruleEntry, found bool, probes int) {
	best := ruleEntry{}
	for probe := 0; probe < len(rf.entries); probe++ {
		idx := rf.slotFor(key, probe)
		probes = probe + 1
		e := rf.entries[idx]
		if !e.valid {
			break
		}
		if !e.tombstone && e.key == key {
			if !found || e.priority < best.priority {
				best = e
				found = true
			}
		}
	}
	return best, found, probes
}

// reprovision replaces the slot array with a new capacity, keeping live
// entries. It is invoked when the IP algorithm selection changes the rule
// capacity (Fig. 5).
func (rf *ruleFilter) reprovision(capacity int) error {
	if capacity < rf.used {
		return fmt.Errorf("core: cannot shrink rule filter to %d slots below %d live rules", capacity, rf.used)
	}
	old := rf.entries
	rf.entries = make([]ruleEntry, capacity)
	rf.used = 0
	for _, e := range old {
		if e.valid && !e.tombstone {
			if _, _, _, err := rf.insert(e.key, e.priority, e.action, e.actionArg); err != nil {
				return err
			}
		}
	}
	return nil
}

// clear drops every entry.
func (rf *ruleFilter) clear() {
	for i := range rf.entries {
		rf.entries[i] = ruleEntry{}
	}
	rf.used = 0
}

// clone duplicates the filter for the copy-on-write update path: the slot
// array is copied and the (stateless) hash unit is shared.
func (rf *ruleFilter) clone() *ruleFilter {
	return &ruleFilter{
		hash:      rf.hash,
		entries:   append([]ruleEntry(nil), rf.entries...),
		entryBits: rf.entryBits,
		used:      rf.used,
	}
}
