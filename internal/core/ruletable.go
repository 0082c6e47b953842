package core

import (
	"slices"
	"sort"

	"sdnpc/internal/cow"
	"sdnpc/internal/fivetuple"
)

// ruleTable is a snapshot's rule table: the installed rules best-first —
// ascending priority, ties in installation order — the software shadow of
// the hardware rules, from which the controller re-programmes the data plane
// after an engine switch and undoes an installation. A rule lives in a stable
// slot of a copy-on-write chunked array, which a clone shares until it writes
// one; the best-first order is a list of slot ids, the one part a publish
// copies whole (4 bytes a rule).
type ruleTable struct {
	slots cow.Array[fivetuple.Rule]
	// ids[:live] are the installed rules' slots best-first; ids[live:] are the
	// slots deletes freed, which the next inserts reuse. ids is private to
	// this table only while idsOwned.
	ids      []uint32
	live     int
	idsOwned bool
}

// len returns the number of installed rules.
func (t *ruleTable) len() int { return t.live }

// at returns the installed rule at best-first position i, for reading only.
func (t *ruleTable) at(i int) *fivetuple.Rule { return t.slots.At(int(t.ids[i])) }

// clone returns a table sharing t's slots and id list; neither side writes
// them in place afterwards.
func (t *ruleTable) clone() ruleTable {
	t.idsOwned = false
	return ruleTable{slots: t.slots.Clone(), ids: t.ids, live: t.live}
}

// ownIDs makes the id list private, with room for extra more ids: an exact
// copy when it is shared, append's amortised growth once it is private.
func (t *ruleTable) ownIDs(extra int) {
	if !t.idsOwned {
		t.ids = append(make([]uint32, 0, len(t.ids)+extra), t.ids...)
		t.idsOwned = true
	}
	t.ids = slices.Grow(t.ids, extra)
}

// bound returns where the run of priority p starts (the first position whose
// priority is p or worse) or, with upper, where it ends.
func (t *ruleTable) bound(p int, upper bool) int {
	return sort.Search(t.live, func(i int) bool {
		q := t.at(i).Priority
		return q > p || (q == p && !upper)
	})
}

// insert places r at best-first position i, in a freed slot when there is
// one.
func (t *ruleTable) insert(i int, r fivetuple.Rule) {
	t.ownIDs(1)
	var id uint32
	if t.live < len(t.ids) {
		id = t.ids[t.live]
		*t.slots.Mut(int(id)) = r
	} else {
		id = uint32(t.slots.Len())
		t.slots.Append(r)
		t.ids = append(t.ids, id)
	}
	copy(t.ids[i+1:t.live+1], t.ids[i:t.live])
	t.ids[i] = id
	t.live++
}

// delete removes the rule at best-first position i. Its slot is freed, not
// written.
func (t *ruleTable) delete(i int) {
	t.ownIDs(0)
	id := t.ids[i]
	copy(t.ids[i:t.live-1], t.ids[i+1:t.live])
	t.live--
	t.ids[t.live] = id
}

// copyRules returns a copy of the table's rules best-first.
func (t *ruleTable) copyRules() []fivetuple.Rule {
	out := make([]fivetuple.Rule, t.live)
	for i := range out {
		out[i] = *t.at(i)
	}
	return out
}
