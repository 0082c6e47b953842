package hypercuts

import (
	"fmt"
	"sort"

	"sdnpc/internal/fivetuple"
)

// Incremental updates. A HyperCuts tree is naturally delta-friendly: the
// internal nodes encode a fixed partition of the header space, so inserting
// or deleting one rule only changes the leaf rule lists — the cut structure
// is untouched. A delta pass visits every node record once, renumbering the
// stored rule indices around the spliced position and editing the rule into
// (or out of) exactly the leaves whose region it overlaps. On the flat tree
// that is one linear sweep of the arena — O(nodes + stored rule pointers) of
// integer work, versus the geometric recursion of a full Build. A leaf that
// outgrows its span's slack relocates into the spare region (the arena grows
// when even that runs out), so a delta never fails mid-structure.
//
// The price is drift: inserts can grow a leaf beyond binth (a fresh build
// would have split it), so the linear leaf scan slowly lengthens, and
// relocations leak their old spans until the next rebuild re-compacts. The
// tree stays correct — Degradation quantifies the drift so a policy layer
// can amortise it away with an occasional rebuild.

// Clone returns a deep structural copy of the classifier: the arena and the
// rule table are duplicated (two memcpys — the flat layout's copy-on-write
// dividend), so delta updates applied to the copy are never observable
// through the original.
func (c *Classifier) Clone() *Classifier {
	cp := &Classifier{
		cfg:          c.cfg,
		rules:        append([]fivetuple.Rule(nil), c.rules...),
		ar:           c.ar.Clone(),
		bump:         c.bump,
		limit:        c.limit,
		nodeCount:    c.nodeCount,
		leafCount:    c.leafCount,
		rulePtrs:     c.rulePtrs,
		maxDepth:     c.maxDepth,
		maxLeaf:      c.maxLeaf,
		baseOverflow: c.baseOverflow,
		overflowPtrs: c.overflowPtrs,
		deltas:       c.deltas,
		deltaWrites:  c.deltaWrites,
	}
	cp.words = cp.ar.Words(0, cp.ar.WordLen())
	return cp
}

// InsertAt splices rule r into the classifier's best-first rule order at
// index idx and adds it to every leaf whose region the rule overlaps — the
// leaf-local delta update. Stored leaf indices at or above idx shift up by
// one during the same sweep, so the tree stays consistent with the new rule
// order without a rebuild.
func (c *Classifier) InsertAt(r fivetuple.Rule, idx int) error {
	if idx < 0 || idx > len(c.rules) {
		return fmt.Errorf("hypercuts: insert index %d out of range [0,%d]", idx, len(c.rules))
	}
	c.rules = append(c.rules, fivetuple.Rule{})
	copy(c.rules[idx+1:], c.rules[idx:])
	c.rules[idx] = r
	for ni := 0; ni < c.nodeCount; ni++ {
		base := ni * nodeWords
		w := c.words
		if w[base+nwFlags]&leafFlag == 0 {
			continue
		}
		off := int(w[base+nwA])
		n := int(w[base+nwB])
		// Renumbering adds one to every index >= idx, which preserves the
		// ascending (best-first) order, so idx then lands at its search
		// position.
		for j := 0; j < n; j++ {
			if int(w[off+j]) >= idx {
				w[off+j]++
			}
		}
		if !ruleOverlapsNode(r, w[base:base+nodeWords]) {
			continue
		}
		if spanCap := int(w[base+nwC]); n == spanCap {
			// The span is full: relocate it into the spare region with
			// doubled slack, leaking the old span until the next rebuild.
			newCap := 2*spanCap + 2
			noff := c.spareAlloc(newCap)
			w = c.words // spareAlloc may have grown the arena
			copy(w[noff:noff+n], w[off:off+n])
			off = noff
			w[base+nwA] = uint32(noff)
			w[base+nwC] = uint32(newCap)
		}
		span := w[off : off+n]
		pos := sort.Search(n, func(i int) bool { return int(span[i]) >= idx })
		w[off+n] = 0
		copy(w[off+pos+1:off+n+1], w[off+pos:off+n])
		w[off+pos] = uint32(idx)
		n++
		w[base+nwB] = uint32(n)
		c.rulePtrs++
		c.deltaWrites++
		if n > c.maxLeaf {
			c.maxLeaf = n
		}
		if n > c.cfg.Binth {
			c.overflowPtrs++
		}
	}
	c.deltas++
	return nil
}

// DeleteAt removes the rule at index idx of the best-first order from every
// leaf storing it and renumbers the remaining indices down, then drops the
// rule from the rule table. Leaves are never re-merged; the (cheap) excess
// depth this can leave behind is amortised away by the policy layer's
// periodic rebuild.
func (c *Classifier) DeleteAt(idx int) error {
	if idx < 0 || idx >= len(c.rules) {
		return fmt.Errorf("hypercuts: delete index %d out of range [0,%d)", idx, len(c.rules))
	}
	w := c.words
	for ni := 0; ni < c.nodeCount; ni++ {
		base := ni * nodeWords
		if w[base+nwFlags]&leafFlag == 0 {
			continue
		}
		off := int(w[base+nwA])
		n := int(w[base+nwB])
		span := w[off : off+n]
		pos := sort.Search(n, func(i int) bool { return int(span[i]) >= idx })
		if pos < n && int(span[pos]) == idx {
			if n > c.cfg.Binth {
				c.overflowPtrs--
			}
			copy(span[pos:], span[pos+1:])
			n--
			w[base+nwB] = uint32(n)
			c.rulePtrs--
			c.deltaWrites++
		}
		for j := 0; j < n; j++ {
			if int(w[off+j]) > idx {
				w[off+j]--
			}
		}
	}
	c.rules = append(c.rules[:idx], c.rules[idx+1:]...)
	c.deltas++
	return nil
}

// DeltaStats reports the delta debt accumulated since the tree was built.
type DeltaStats struct {
	// Deltas is the number of InsertAt/DeleteAt ops applied since Build.
	Deltas int
	// Writes is the number of leaf entries written or removed by those ops.
	Writes int
	// OverflowPtrs is the number of leaf entries beyond binth in excess of
	// what the build itself produced (deep or fully overlapping rule sets
	// can leave overfull leaves even in a fresh tree, which is not delta
	// drift).
	OverflowPtrs int
}

// DeltaStats returns the delta debt since Build.
func (c *Classifier) DeltaStats() DeltaStats {
	over := c.overflowPtrs - c.baseOverflow
	if over < 0 {
		over = 0
	}
	return DeltaStats{Deltas: c.deltas, Writes: c.deltaWrites, OverflowPtrs: over}
}

// Degradation estimates how far the delta-updated tree has drifted from a
// freshly built one, as the fraction of rules now sitting in overfull
// leaves: 0 right after a build, approaching 1 when the leaf scans have
// outgrown binth everywhere. The classifier stays correct regardless —
// degradation only measures lookup-cost drift.
func (c *Classifier) Degradation() float64 {
	if len(c.rules) == 0 {
		return 0
	}
	d := float64(c.DeltaStats().OverflowPtrs) / float64(len(c.rules))
	if d > 1 {
		d = 1
	}
	return d
}

// MaxLeafOccupancy returns an upper bound on the occupancy of the fullest
// leaf: exact after Build and after inserts; deletes may leave it stale
// high, which only overestimates the modelled worst case.
func (c *Classifier) MaxLeafOccupancy() int { return c.maxLeaf }

// initLeafMetrics derives the leaf-occupancy counters of a freshly built
// tree — the zero point the delta accounting measures drift from — with one
// linear sweep of the node records.
func (c *Classifier) initLeafMetrics() {
	c.overflowPtrs, c.maxLeaf = 0, 0
	w := c.words
	for ni := 0; ni < c.nodeCount; ni++ {
		base := ni * nodeWords
		if w[base+nwFlags]&leafFlag == 0 {
			continue
		}
		n := int(w[base+nwB])
		if n > c.maxLeaf {
			c.maxLeaf = n
		}
		if over := n - c.cfg.Binth; over > 0 {
			c.overflowPtrs += over
		}
	}
	c.baseOverflow = c.overflowPtrs
	c.deltas, c.deltaWrites = 0, 0
}
