package label

import "sort"

// PriorityLabel is a label annotated with the priority of the best (lowest
// numbered) rule that uses the corresponding field value. Field lookup
// engines return lists of these, ordered so that the Highest Priority
// Matching Label (HPML) is at the front — the invariant §IV.A requires the
// controller to maintain ("the lists of labels are reorganized according to
// the priority rule").
type PriorityLabel struct {
	Label    Label
	Priority int
}

// List is a priority-ordered list of labels attached to one node of a field
// lookup structure. Lower Priority values sort first. The zero value is an
// empty, ready-to-use list.
type List struct {
	items []PriorityLabel
}

// NewList builds a list from the given items, establishing the priority
// order.
func NewList(items ...PriorityLabel) *List {
	l := &List{}
	for _, it := range items {
		l.Insert(it)
	}
	return l
}

// Len returns the number of labels in the list.
func (l *List) Len() int { return len(l.items) }

// Reset empties the list keeping its capacity, so engines can reuse one
// caller-owned list per lookup without allocating.
func (l *List) Reset() { l.items = l.items[:0] }

// Insert adds a label keeping the list sorted by ascending priority. If the
// label is already present its priority is updated to the better (smaller)
// of the two, mirroring the controller's behaviour when a higher-priority
// rule starts sharing an existing field value.
func (l *List) Insert(item PriorityLabel) {
	for i, existing := range l.items {
		if existing.Label == item.Label {
			if item.Priority < existing.Priority {
				l.items = append(l.items[:i], l.items[i+1:]...)
				l.insertSorted(item)
			}
			return
		}
	}
	l.insertSorted(item)
}

func (l *List) insertSorted(item PriorityLabel) {
	pos := sort.Search(len(l.items), func(i int) bool {
		return l.items[i].Priority > item.Priority
	})
	l.items = append(l.items, PriorityLabel{})
	copy(l.items[pos+1:], l.items[pos:])
	l.items[pos] = item
}

// Remove deletes the label from the list. It reports whether the label was
// present.
func (l *List) Remove(lbl Label) bool {
	for i, existing := range l.items {
		if existing.Label == lbl {
			l.items = append(l.items[:i], l.items[i+1:]...)
			return true
		}
	}
	return false
}

// Reprioritise sets a new priority for an existing label, preserving the
// order invariant. It reports whether the label was present.
func (l *List) Reprioritise(lbl Label, priority int) bool {
	for i, existing := range l.items {
		if existing.Label == lbl {
			l.items = append(l.items[:i], l.items[i+1:]...)
			l.insertSorted(PriorityLabel{Label: lbl, Priority: priority})
			return true
		}
	}
	return false
}

// Has reports whether the label is in the list, without copying it.
func (l *List) Has(lbl Label) bool {
	for _, existing := range l.items {
		if existing.Label == lbl {
			return true
		}
	}
	return false
}

// HPML returns the Highest Priority Matching Label — the first entry. The
// second result is false when the list is empty.
func (l *List) HPML() (PriorityLabel, bool) {
	if len(l.items) == 0 {
		return PriorityLabel{}, false
	}
	return l.items[0], true
}

// At returns the i-th entry in priority order.
func (l *List) At(i int) PriorityLabel { return l.items[i] }

// Items returns a copy of the entries in priority order.
func (l *List) Items() []PriorityLabel {
	out := make([]PriorityLabel, len(l.items))
	copy(out, l.items)
	return out
}

// Labels returns just the labels in priority order.
func (l *List) Labels() []Label {
	out := make([]Label, len(l.items))
	for i, it := range l.items {
		out[i] = it.Label
	}
	return out
}

// Clone returns an independent copy of the list.
func (l *List) Clone() *List {
	c := &List{items: make([]PriorityLabel, len(l.items))}
	copy(c.items, l.items)
	return c
}

// Merge inserts every entry of other into l (deduplicating by label and
// keeping the better priority). It is used when a trie lookup aggregates the
// label lists of every matching prefix length.
func (l *List) Merge(other *List) {
	if other == nil {
		return
	}
	for _, it := range other.items {
		l.Insert(it)
	}
}
