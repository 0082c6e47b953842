package dcfl

import (
	"fmt"
	"sort"

	"sdnpc/internal/fivetuple"
)

// Incremental updates. DCFL decomposes the rule set per field, which makes
// it naturally delta-friendly: one rule touches exactly one label per field
// and one combination entry per aggregation node, so an insert is five label
// acquisitions plus four table adds, and a delete empties the rule's
// combination sets along the same path. The only structure-wide work is
// renumbering the stored rule indices around the spliced position — O(total
// set entries) of integer increments over the flat spans, versus the
// per-rule table construction of a full Build. Spans (and the hash tables)
// that outgrow their slack relocate into the arena's spare region, growing
// the arena when even that runs out, so a delta never fails mid-structure.
//
// Deletes leave garbage behind on purpose: emptied combination entries and
// unused field values stay in the tables, costing extra probes but never
// correctness (the final aggregation node decides by set contents, and an
// empty set matches nothing). Relocations leak their old spans the same
// way. Degradation quantifies that garbage so a policy layer can amortise
// it away with an occasional rebuild.

// Clone returns a deep copy of the classifier: the rule table and the whole
// arena (field arrays, hash tables, directories and spans) are duplicated
// with two memcpys, so delta updates applied to the copy are never
// observable through the original.
func (c *Classifier) Clone() *Classifier {
	cp := &Classifier{
		rules:       append([]fivetuple.Rule(nil), c.rules...),
		ar:          c.ar.Clone(),
		bump:        c.bump,
		limit:       c.limit,
		fields:      c.fields,
		ipTable:     c.ipTable,
		portTable:   c.portTable,
		transTable:  c.transTable,
		finalTable:  c.finalTable,
		staleCombos: c.staleCombos,
		deltas:      c.deltas,
		deltaWrites: c.deltaWrites,
	}
	cp.words = cp.ar.Words(0, cp.ar.WordLen())
	return cp
}

// shiftUp adds one to every stored rule index >= idx across the node's
// spans, freeing the index for an insertion. Ascending order is preserved.
func (c *Classifier) shiftUp(t *flatAgg, idx int) {
	w := c.words
	for id := 0; id < t.dirLen; id++ {
		off, n, _ := c.setView(t, uint32(id))
		for j := 0; j < n; j++ {
			if int(w[off+j]) >= idx {
				w[off+j]++
			}
		}
	}
}

// shiftDown subtracts one from every stored rule index > idx, closing the
// gap a deletion left.
func (c *Classifier) shiftDown(t *flatAgg, idx int) {
	w := c.words
	for id := 0; id < t.dirLen; id++ {
		off, n, _ := c.setView(t, uint32(id))
		for j := 0; j < n; j++ {
			if int(w[off+j]) > idx {
				w[off+j]--
			}
		}
	}
}

// setInsert adds rule index v to the set of combination id, relocating the
// span into the spare region when its slack is exhausted.
func (c *Classifier) setInsert(t *flatAgg, id uint32, v uint32) {
	off, n, spanCap := c.setView(t, id)
	w := c.words
	span := w[off : off+n]
	pos := sort.Search(n, func(i int) bool { return span[i] >= v })
	if pos < n && span[pos] == v {
		return
	}
	d := t.dirOff + 3*int(id)
	if n == spanCap {
		newCap := 2*spanCap + 2
		noff := c.spareAlloc(newCap)
		w = c.words // spareAlloc may have grown the arena
		copy(w[noff:noff+n], w[off:off+n])
		off = noff
		w[d] = uint32(noff)
		w[d+2] = uint32(newCap)
	}
	copy(w[off+pos+1:off+n+1], w[off+pos:off+n])
	w[off+pos] = v
	w[d+1] = uint32(n + 1)
	t.entries++
}

// setRemove deletes rule index v from the set of combination id. emptied
// reports whether the set became empty (a stale combination entry).
func (c *Classifier) setRemove(t *flatAgg, id uint32, v uint32) (found, emptied bool) {
	off, n, _ := c.setView(t, id)
	w := c.words
	span := w[off : off+n]
	pos := sort.Search(n, func(i int) bool { return span[i] >= v })
	if pos >= n || span[pos] != v {
		return false, false
	}
	copy(span[pos:], span[pos+1:])
	w[t.dirOff+3*int(id)+1] = uint32(n - 1)
	t.entries--
	return true, n-1 == 0
}

// add registers that a rule uses the combination (a, b) and returns its
// combination ID, creating the slot, directory entry and span on first use.
func (c *Classifier) add(t *flatAgg, a, b uint32, idx uint32) uint32 {
	if id, ok := c.probe(t, a, b); ok {
		c.setInsert(t, id, idx)
		return id
	}
	id := uint32(t.dirLen)
	if t.dirLen == t.dirCap {
		// Relocate the directory with doubled slack.
		newCap := 2*t.dirCap + 4
		noff := c.spareAlloc(3 * newCap)
		copy(c.words[noff:noff+3*t.dirLen], c.words[t.dirOff:t.dirOff+3*t.dirLen])
		t.dirOff, t.dirCap = noff, newCap
	}
	spanCap := 4
	off := c.spareAlloc(spanCap)
	w := c.words
	d := t.dirOff + 3*int(id)
	w[d], w[d+1], w[d+2] = uint32(off), 1, uint32(spanCap)
	w[off] = idx
	t.dirLen++
	t.entries++
	c.slotInsert(t, a, b, id)
	return id
}

// slotInsert places a new combination into the hash table, rehashing into a
// doubled slot array first when the insert would push load past 3/4.
func (c *Classifier) slotInsert(t *flatAgg, a, b uint32, id uint32) {
	slotCount := t.slotMask + 1
	if 4*(t.used+1) > 3*slotCount {
		newCount := slotCount * 2
		noff := c.spareAlloc(3 * newCount)
		w := c.words
		for i := noff; i < noff+3*newCount; i++ {
			w[i] = emptySlot
		}
		oldOff, oldCount := t.slotOff, slotCount
		t.slotOff, t.slotMask = noff, newCount-1
		for s := 0; s < oldCount; s++ {
			if w[oldOff+3*s] == emptySlot {
				continue
			}
			c.slotPlace(t, w[oldOff+3*s], w[oldOff+3*s+1], w[oldOff+3*s+2])
		}
	}
	c.slotPlace(t, a, b, id)
	t.used++
}

// slotPlace writes one (a, b, id) triple into its probe-sequence slot.
func (c *Classifier) slotPlace(t *flatAgg, a, b, id uint32) {
	w := c.words
	i := int(hashPair(a, b)) & t.slotMask
	for w[t.slotOff+3*i] != emptySlot {
		i = (i + 1) & t.slotMask
	}
	s := t.slotOff + 3*i
	w[s], w[s+1], w[s+2] = a, b, id
}

// labelOf returns the label of the rule's field value, appending a fresh
// value (relocating the field array when its slack is exhausted) when the
// value is new.
func (c *Classifier) labelOf(f fieldIndex, r fivetuple.Rule) uint32 {
	lo, hi := fieldRange(f, r)
	span := &c.fields[f]
	w := c.words
	for l := 0; l < span.n; l++ {
		if w[span.off+2*l] == lo && w[span.off+2*l+1] == hi {
			return uint32(l)
		}
	}
	if span.n == span.cap {
		newCap := 2*span.cap + 4
		noff := c.spareAlloc(2 * newCap)
		w = c.words
		copy(w[noff:noff+2*span.n], w[span.off:span.off+2*span.n])
		span.off, span.cap = noff, newCap
	}
	w[span.off+2*span.n] = lo
	w[span.off+2*span.n+1] = hi
	span.n++
	return uint32(span.n - 1)
}

// findLabel returns the label of an already-stored field value.
func (c *Classifier) findLabel(f fieldIndex, r fivetuple.Rule) (uint32, bool) {
	lo, hi := fieldRange(f, r)
	span := c.fields[f]
	w := c.words
	for l := 0; l < span.n; l++ {
		if w[span.off+2*l] == lo && w[span.off+2*l+1] == hi {
			return uint32(l), true
		}
	}
	return 0, false
}

// InsertAt splices rule r into the classifier's best-first rule order at
// index idx: every aggregation set is renumbered around the new index, the
// rule's five field values are labelled (new values are appended to the
// field-search arrays), and the rule is added along its combination path.
func (c *Classifier) InsertAt(r fivetuple.Rule, idx int) error {
	if idx < 0 || idx > len(c.rules) {
		return fmt.Errorf("dcfl: insert index %d out of range [0,%d]", idx, len(c.rules))
	}
	for _, t := range c.aggTables() {
		c.shiftUp(t, idx)
	}
	c.rules = append(c.rules, fivetuple.Rule{})
	copy(c.rules[idx+1:], c.rules[idx:])
	c.rules[idx] = r

	srcLbl := c.labelOf(fieldSrcIP, r)
	dstLbl := c.labelOf(fieldDstIP, r)
	spLbl := c.labelOf(fieldSrcPort, r)
	dpLbl := c.labelOf(fieldDstPort, r)
	prLbl := c.labelOf(fieldProto, r)

	ipID := c.addCombo(&c.ipTable, srcLbl, dstLbl, idx)
	portID := c.addCombo(&c.portTable, spLbl, dpLbl, idx)
	transID := c.addCombo(&c.transTable, portID, prLbl, idx)
	c.addCombo(&c.finalTable, ipID, transID, idx)
	c.deltas++
	return nil
}

// addCombo registers the combination for the rule, maintaining the
// stale-entry accounting: refilling a previously emptied set revives it.
func (c *Classifier) addCombo(t *flatAgg, a, b uint32, idx int) uint32 {
	if id, ok := c.probe(t, a, b); ok {
		if _, n, _ := c.setView(t, id); n == 0 {
			c.staleCombos--
		}
	}
	c.deltaWrites++
	return c.add(t, a, b, uint32(idx))
}

// DeleteAt removes the rule at index idx of the best-first order: it is
// deleted from the four aggregation sets along its combination path and the
// remaining indices are renumbered down. Emptied combination entries and
// now-unused field values are left in place as tracked garbage.
func (c *Classifier) DeleteAt(idx int) error {
	if idx < 0 || idx >= len(c.rules) {
		return fmt.Errorf("dcfl: delete index %d out of range [0,%d)", idx, len(c.rules))
	}
	r := c.rules[idx]
	lookup := func(f fieldIndex) (uint32, error) {
		lbl, ok := c.findLabel(f, r)
		if !ok {
			return 0, fmt.Errorf("dcfl: field %d value of rule %d is not labelled", f, idx)
		}
		return lbl, nil
	}
	srcLbl, err := lookup(fieldSrcIP)
	if err != nil {
		return err
	}
	dstLbl, err := lookup(fieldDstIP)
	if err != nil {
		return err
	}
	spLbl, err := lookup(fieldSrcPort)
	if err != nil {
		return err
	}
	dpLbl, err := lookup(fieldDstPort)
	if err != nil {
		return err
	}
	prLbl, err := lookup(fieldProto)
	if err != nil {
		return err
	}
	ipID, ok := c.probe(&c.ipTable, srcLbl, dstLbl)
	if !ok {
		return fmt.Errorf("dcfl: IP combination of rule %d missing", idx)
	}
	portID, ok := c.probe(&c.portTable, spLbl, dpLbl)
	if !ok {
		return fmt.Errorf("dcfl: port combination of rule %d missing", idx)
	}
	transID, ok := c.probe(&c.transTable, portID, prLbl)
	if !ok {
		return fmt.Errorf("dcfl: transport combination of rule %d missing", idx)
	}
	finalID, ok := c.probe(&c.finalTable, ipID, transID)
	if !ok {
		return fmt.Errorf("dcfl: final combination of rule %d missing", idx)
	}
	for _, del := range []struct {
		t  *flatAgg
		id uint32
	}{{&c.ipTable, ipID}, {&c.portTable, portID}, {&c.transTable, transID}, {&c.finalTable, finalID}} {
		found, emptied := c.setRemove(del.t, del.id, uint32(idx))
		if !found {
			return fmt.Errorf("dcfl: rule %d missing from its combination set", idx)
		}
		if emptied {
			c.staleCombos++
		}
		c.deltaWrites++
	}
	for _, t := range c.aggTables() {
		c.shiftDown(t, idx)
	}
	c.rules = append(c.rules[:idx], c.rules[idx+1:]...)
	c.deltas++
	return nil
}

func (c *Classifier) aggTables() [4]*flatAgg {
	return [4]*flatAgg{&c.ipTable, &c.portTable, &c.transTable, &c.finalTable}
}

// DeltaStats reports the delta debt accumulated since the tables were built.
type DeltaStats struct {
	// Deltas is the number of InsertAt/DeleteAt ops applied since Build.
	Deltas int
	// Writes is the number of combination-set edits performed by those ops.
	Writes int
	// StaleCombos is the number of combination entries whose rule set is
	// empty — garbage a fresh build would not contain.
	StaleCombos int
}

// DeltaStats returns the delta debt since Build.
func (c *Classifier) DeltaStats() DeltaStats {
	return DeltaStats{Deltas: c.deltas, Writes: c.deltaWrites, StaleCombos: c.staleCombos}
}

// Degradation estimates how far the delta-updated tables have drifted from
// freshly built ones, as the fraction of combination entries that are stale:
// 0 right after a build, growing as deletes empty entries that keep
// consuming probes. The classifier stays correct regardless — degradation
// only measures lookup-cost and memory drift.
func (c *Classifier) Degradation() float64 {
	total := 0
	for _, t := range c.aggTables() {
		total += t.dirLen
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
