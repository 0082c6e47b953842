package dcfl

import (
	"slices"
	"sort"

	"sdnpc/internal/cow"
	"sdnpc/internal/fivetuple"
)

// Incremental updates. DCFL decomposes the rule set per field, which makes
// it naturally delta-friendly: one rule touches exactly one label per field
// and one combination entry per aggregation node, so an insert is five label
// acquisitions plus four set edits, and a delete removes the rule from its
// four sets along the same path. Sets list stable rule ids, so a delta
// renumbers nothing: it replaces the one set chunk it edits per node, and an
// insert appends the rule's record to the store under the next id. A new
// field value appends to its value array and a new combination takes a hash
// slot, each a write to one chunk.
//
// A deleted rule's id is retired, not reused (see fivetuple.Records, which
// keeps the records, the dead-id bound and the op counters).
//
// Deletes leave garbage behind on purpose: emptied combination entries and
// unused field values stay in the tables, costing extra probes but never
// correctness (the final aggregation node decides by set contents, and an
// empty set matches nothing). Degradation quantifies that garbage so a
// policy layer can amortise it away with an occasional rebuild.

// Clone returns a copy of the classifier for delta updates. It shares
// everything with c — the record store, the field values, the hash slots and
// the sets — and a delta on either side copies what it writes: a directory
// the first time, then the chunks it changes. Clone takes c's ownership of
// them away, which is a write to c needing the same serialisation as a
// delta, though no reader of c sees it.
func (c *Classifier) Clone() *Classifier {
	cp := *c
	cp.Records = c.Records.Clone()
	for f := range cp.fields {
		cp.fields[f] = c.fields[f].Clone()
	}
	cp.ipTable, cp.portTable = c.ipTable.clone(), c.portTable.clone()
	cp.transTable, cp.finalTable = c.transTable.clone(), c.finalTable.clone()
	return &cp
}

// clone returns a node sharing t's slots and sets.
func (t *aggNode) clone() aggNode {
	cp := *t
	cp.slots, cp.sets = t.slots.Clone(), t.sets.Clone()
	return cp
}

// setOf returns the chunk and the chunk-local bit of combination id's set.
func setOf(id uint32) (k int, bit uint64) {
	return int(id >> cow.ChunkShift), 1 << (id & (cow.ChunkLen - 1))
}

// add registers that rule, the newest id, uses the combination (a, b) and
// returns its combination ID, creating the slot and the set on first use and
// keeping the stale-entry accounting: refilling an emptied set revives it.
// The rule goes after the set's rules of the same or a better priority.
func (c *Classifier) add(t *aggNode, a, b, rule uint32) uint32 {
	t.entries++
	id, ok := t.probe(a, b)
	if !ok {
		id = uint32(t.sets.Len())
		t.sets.Append(rule)
		t.slotInsert(a, b, id)
		return id
	}
	if len(t.sets.List(int(id))) == 0 {
		c.staleCombos--
	}
	p := c.At(int(rule)).Priority
	k, bit := setOf(id)
	t.sets.Insert(k, bit, rule, func(set []uint32) int {
		return sort.Search(len(set), func(i int) bool { return c.At(int(set[i])).Priority > p })
	})
	return id
}

// remove deletes rule, which it must hold, from the set of combination id
// and reports whether the set became empty (a stale combination entry).
func (t *aggNode) remove(id, rule uint32) (emptied bool) {
	emptied = len(t.sets.List(int(id))) == 1
	k, bit := setOf(id)
	t.sets.Remove(k, bit, rule)
	t.entries--
	return emptied
}

// slotInsert places a new combination into the hash table, rehashing into a
// doubled slot table first when the insert would push load past 3/4.
func (t *aggNode) slotInsert(a, b, id uint32) {
	if slotCount := t.mask + 1; 4*t.sets.Len() > 3*slotCount {
		slots := t.emptySlots(2 * slotCount)
		for k := 0; k<<cow.ChunkShift < slotCount; k++ {
			for _, s := range t.slots.Chunk(k) {
				if s[0] != emptySlot {
					slots[t.home(slots, s[0], s[1])] = s
				}
			}
		}
		t.slots = cow.Adopt(slots)
	}
	i := int(hashPair(a, b)) & t.mask
	for t.slots.At(i)[0] != emptySlot {
		i = (i + 1) & t.mask
	}
	*t.slots.Mut(i) = slot{a, b, id}
}

// find returns the label of the value (lo, hi) in a field's value array.
func find(values *cow.Array[[2]uint32], lo, hi uint32) (uint32, bool) {
	for k := 0; k<<cow.ChunkShift < values.Len(); k++ {
		if j := slices.Index(values.Chunk(k), [2]uint32{lo, hi}); j >= 0 {
			return uint32(k<<cow.ChunkShift + j), true
		}
	}
	return 0, false
}

// labelOf returns the label of the rule's field value, appending the value
// when it is new.
func (c *Classifier) labelOf(f fieldIndex, r *fivetuple.PackedRule) uint32 {
	lo, hi := fieldRange(f, r)
	values := &c.fields[f]
	if l, ok := find(values, lo, hi); ok {
		return l
	}
	values.Append([2]uint32{lo, hi})
	return uint32(values.Len() - 1)
}

// Insert labels rule r's five field values (new values are appended to the
// field-search arrays) and adds it under the next id along its combination
// path. It refuses, changing nothing, a rule the tables cannot encode.
func (c *Classifier) Insert(r fivetuple.Rule) error { return c.Records.Insert(&r, c.place) }

// Delete removes the first-installed rule with r's matches and priority: its
// id, found in the final-table set of r's combination, is deleted from the
// four aggregation sets along its combination path and retired. Emptied
// combination entries and now-unused field values are left in place as
// tracked garbage. A refused delete — no such rule is installed (a rule the
// tables cannot encode never is), or too many ids are already dead —
// changes nothing.
func (c *Classifier) Delete(r fivetuple.Rule) error { return c.Records.Delete(&r, c.remove) }

// InsertAt is Insert behind the positional signature of the benchmark's
// structure ladder (fivetuple.Records.InsertAt).
func (c *Classifier) InsertAt(r fivetuple.Rule, idx int) error {
	return c.Records.InsertAt(&r, idx, c.place)
}

// DeleteAt deletes the first-installed rule with the matches and priority of
// rule id (fivetuple.Records.DeleteAt).
func (c *Classifier) DeleteAt(id int) error { return c.Records.DeleteAt(id, c.remove) }

// place adds the new rule id along r's combination path, one set edit per
// aggregation node.
func (c *Classifier) place(r *fivetuple.PackedRule, rule uint32) int {
	var lbl [numFields]uint32
	for f := range numFields {
		lbl[f] = c.labelOf(f, r)
	}
	ipID := c.add(&c.ipTable, lbl[fieldSrcIP], lbl[fieldDstIP], rule)
	portID := c.add(&c.portTable, lbl[fieldSrcPort], lbl[fieldDstPort], rule)
	transID := c.add(&c.transTable, portID, lbl[fieldProto], rule)
	c.add(&c.finalTable, ipID, transID, rule)
	return len(c.aggTables())
}

// remove deletes the first-installed rule with r's matches and priority from
// the four aggregation sets along its combination path.
func (c *Classifier) remove(r fivetuple.PackedRule) (int, bool) {
	rule, combos, ok := c.locate(&r)
	if !ok {
		return 0, false
	}
	// Insert added the id along this same path, so every set holds it.
	for i, t := range c.aggTables() {
		if t.remove(combos[i], rule) {
			c.staleCombos++
		}
	}
	return len(combos), true
}

// locate returns the id of the first-installed rule with r's matches and
// priority, taken from the final-table set of r's combination, and the
// combination IDs of r's path through the four aggregation nodes.
func (c *Classifier) locate(r *fivetuple.PackedRule) (rule uint32, combos [4]uint32, ok bool) {
	var lbl [numFields]uint32
	for f := range numFields {
		lo, hi := fieldRange(f, r)
		if lbl[f], ok = find(&c.fields[f], lo, hi); !ok {
			return 0, combos, false
		}
	}
	var okIP, okPort, okTrans, okFinal bool
	combos[0], okIP = c.ipTable.probe(lbl[fieldSrcIP], lbl[fieldDstIP])
	combos[1], okPort = c.portTable.probe(lbl[fieldSrcPort], lbl[fieldDstPort])
	combos[2], okTrans = c.transTable.probe(combos[1], lbl[fieldProto])
	combos[3], okFinal = c.finalTable.probe(combos[0], combos[2])
	if !okIP || !okPort || !okTrans || !okFinal {
		return 0, combos, false
	}
	for _, id := range c.finalTable.sets.List(int(combos[3])) {
		if c.At(int(id)).Same(r) {
			return id, combos, true
		}
	}
	return 0, combos, false
}

func (c *Classifier) aggTables() [4]*aggNode {
	return [4]*aggNode{&c.ipTable, &c.portTable, &c.transTable, &c.finalTable}
}

// StaleCombos returns the number of combination entries whose rule set is
// empty — garbage a fresh build would not contain.
func (c *Classifier) StaleCombos() int { return c.staleCombos }

// Degradation estimates how far the delta-updated tables have drifted from
// freshly built ones, as the fraction of combination entries that are stale:
// 0 right after a build, growing as deletes empty entries that keep
// consuming probes. The classifier stays correct regardless — degradation
// only measures lookup-cost and memory drift.
func (c *Classifier) Degradation() float64 {
	total := 0
	for _, t := range c.aggTables() {
		total += t.sets.Len()
	}
	if total == 0 {
		return 0
	}
	d := float64(c.staleCombos) / float64(total)
	if d > 1 {
		d = 1
	}
	return d
}
