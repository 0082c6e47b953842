package hypercuts

import (
	"fmt"

	"sdnpc/internal/cow"
	"sdnpc/internal/fivetuple"
)

// Incremental updates. A HyperCuts tree is naturally delta-friendly: the
// internal nodes encode a fixed partition of the header space, so inserting
// or deleting one rule only changes the lists of the leaves whose region it
// overlaps — the cut structure is untouched. Leaves list stable rule ids, so
// a delta renumbers nothing in them: it shifts the positions in the
// id → position map (one pass over 4 bytes a rule) and rewrites the chunks of
// the leaves its rule overlaps, about two leaves in one chunk on ACL sets.
//
// The price is drift: inserts can grow a leaf beyond binth (a fresh build
// would have split it), so the linear leaf scan slowly lengthens. The tree
// stays correct — Degradation quantifies the drift so a policy layer can
// amortise it away with an occasional rebuild.

// Clone returns a copy of the classifier for delta updates. It shares
// everything with c — the node records, the leaf chunks, the rule store and
// the id → position map — and a delta on either side copies what it writes:
// the map and the leaf directory the first time, then the chunks it changes.
// Clone takes c's ownership of them away, which is a write to c needing the
// same serialisation as a delta, though no reader of c sees it.
func (c *Classifier) Clone() *Classifier {
	c.posOwned = false
	cp := *c
	cp.leaves = c.leaves.Clone()
	cp.rules = c.rules.Clone()
	return &cp
}

// ownPos makes the id → position map private, with room for one more id.
func (c *Classifier) ownPos() {
	if !c.posOwned {
		c.pos = append(make([]uint32, 0, len(c.pos)+1), c.pos...)
		c.posOwned = true
	}
}

// InsertAt splices rule r into the classifier's best-first rule order at
// index idx — positions at or above idx shift up by one — and adds it to
// every leaf whose region the rule overlaps: the leaf-local delta update.
func (c *Classifier) InsertAt(r fivetuple.Rule, idx int) error {
	if idx < 0 || idx > c.live {
		return fmt.Errorf("hypercuts: insert index %d out of range [0,%d]", idx, c.live)
	}
	c.ownPos()
	id := -1
	for i, p := range c.pos {
		switch {
		case p == freePos:
			if id < 0 {
				id = i
			}
		case int(p) >= idx:
			c.pos[i]++
		}
	}
	if id < 0 {
		id = len(c.pos)
		c.pos = append(c.pos, 0)
		c.rules.Append(r)
	} else {
		*c.rules.Mut(id) = r
	}
	c.pos[id] = uint32(idx)
	c.live++
	c.spliceLeaves(r, uint32(id), true)
	c.deltas++
	return nil
}

// DeleteAt removes the rule at index idx of the best-first order from every
// leaf storing it and frees its id; positions above idx shift down by one.
// Leaves are never re-merged; the (cheap) excess depth this can leave behind
// is amortised away by the policy layer's periodic rebuild.
func (c *Classifier) DeleteAt(idx int) error {
	if idx < 0 || idx >= c.live {
		return fmt.Errorf("hypercuts: delete index %d out of range [0,%d)", idx, c.live)
	}
	c.ownPos()
	id := 0
	for i, p := range c.pos {
		switch {
		case p == freePos:
		case int(p) == idx:
			id = i
		case int(p) > idx:
			c.pos[i]--
		}
	}
	c.pos[id] = freePos
	c.live--
	c.spliceLeaves(*c.rules.At(id), uint32(id), false)
	c.deltas++
	return nil
}

// spliceLeaves adds id to (insert) or removes it from every leaf whose region
// r overlaps — the leaves a fresh build would store r in. Leaf numbers rise
// with node index, so one pass over the records meets a chunk's leaves
// together, and each chunk holding such a leaf is replaced once.
func (c *Classifier) spliceLeaves(r fivetuple.Rule, id uint32, insert bool) {
	var touched uint64
	chunk := -1
	for base := 0; base < len(c.nodes); base += nodeWords {
		rec := c.nodes[base : base+nodeWords]
		if rec[nwFlags]&leafFlag == 0 || !ruleOverlapsRegion(r, regionOf(rec)) {
			continue
		}
		leaf := int(rec[nwA])
		if leaf>>cow.ChunkShift != chunk {
			if chunk >= 0 {
				c.rewriteChunk(chunk, touched, id, insert)
			}
			chunk, touched = leaf>>cow.ChunkShift, 0
		}
		touched |= 1 << (leaf & (cow.ChunkLen - 1))
	}
	if chunk >= 0 {
		c.rewriteChunk(chunk, touched, id, insert)
	}
}

// rewriteChunk replaces leaf chunk k by a copy in which every touched leaf
// has gained id in its best-first place (insert) or lost it, and keeps the
// leaf-occupancy counters.
func (c *Classifier) rewriteChunk(k int, touched uint64, id uint32, insert bool) {
	lc := c.leaves.Chunk(k)
	for j := range cow.ChunkLen {
		if touched>>j&1 == 0 {
			continue
		}
		n := len(lc.List(j))
		if insert {
			c.rulePtrs++
			if n+1 > c.cfg.Binth {
				c.overflowPtrs++
			}
			c.maxLeaf = max(c.maxLeaf, n+1)
		} else {
			c.rulePtrs--
			if n > c.cfg.Binth {
				c.overflowPtrs--
			}
		}
		c.deltaWrites++
	}
	if !insert {
		c.leaves.Remove(k, touched, id)
		return
	}
	c.leaves.Insert(k, touched, id, func(list []uint32) int {
		at := 0
		for at < len(list) && c.pos[list[at]] < c.pos[id] {
			at++
		}
		return at
	})
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
	if c.live == 0 {
		return 0
	}
	d := float64(c.DeltaStats().OverflowPtrs) / float64(c.live)
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
// sweep of the leaf lists.
func (c *Classifier) initLeafMetrics() {
	c.overflowPtrs, c.maxLeaf = 0, 0
	for k := range c.leaves.Chunks() {
		for j := range cow.ChunkLen {
			n := len(c.leaves.Chunk(k).List(j))
			c.maxLeaf = max(c.maxLeaf, n)
			if over := n - c.cfg.Binth; over > 0 {
				c.overflowPtrs += over
			}
		}
	}
	c.baseOverflow = c.overflowPtrs
	c.deltas, c.deltaWrites = 0, 0
}
