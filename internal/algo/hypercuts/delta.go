package hypercuts

import (
	"sdnpc/internal/cow"
	"sdnpc/internal/fivetuple"
)

// Incremental updates. A HyperCuts tree is naturally delta-friendly: the
// internal nodes encode a fixed partition of the header space, so inserting
// or deleting one rule only changes the lists of the leaves whose region it
// overlaps — the cut structure is untouched. Leaves list stable rule ids, so
// a delta renumbers nothing: it rewrites the chunks of the leaves its rule
// overlaps, about two leaves in one chunk on ACL sets, and an insert appends
// the rule's record to the store under the next id.
//
// A deleted rule's id is retired, not reused (see fivetuple.Records, which
// keeps the records, the dead-id bound and the op counters).
//
// The price is drift: inserts can grow a leaf beyond binth (a fresh build
// would have split it), so the linear leaf scan slowly lengthens. The tree
// stays correct — Degradation quantifies the drift so a policy layer can
// amortise it away with an occasional rebuild.

// Clone returns a copy of the classifier for delta updates. It shares
// everything with c — the node records, the leaf chunks and the record store —
// and a delta on either side copies what it writes: the leaf directory the
// first time, then the chunks it changes. Clone takes c's ownership of them
// away, which is a write to c needing the same serialisation as a delta,
// though no reader of c sees it.
func (c *Classifier) Clone() *Classifier {
	cp := *c
	cp.leaves = c.leaves.Clone()
	cp.Records = c.Records.Clone()
	return &cp
}

// Insert adds rule r under the next id to every leaf whose region it
// overlaps, after the entries of the same or a better priority: the
// leaf-local delta update. It refuses, changing nothing, a rule the tree
// cannot encode.
func (c *Classifier) Insert(r fivetuple.Rule) error { return c.Records.Insert(&r, c.place) }

// Delete removes the first-installed rule with r's matches and priority from
// every leaf storing it and retires its id. It refuses, changing nothing,
// when no such rule is installed — a rule the tree cannot encode never is —
// or when too many ids are already dead. Leaves are never re-merged; the
// (cheap) excess depth this can leave behind is amortised away by the policy
// layer's periodic rebuild.
func (c *Classifier) Delete(r fivetuple.Rule) error { return c.Records.Delete(&r, c.remove) }

// InsertAt is Insert behind the positional signature of the benchmark's
// structure ladder (fivetuple.Records.InsertAt).
func (c *Classifier) InsertAt(r fivetuple.Rule, idx int) error {
	return c.Records.InsertAt(&r, idx, c.place)
}

// DeleteAt deletes the first-installed rule with the matches and priority of
// rule id (fivetuple.Records.DeleteAt).
func (c *Classifier) DeleteAt(id int) error { return c.Records.DeleteAt(id, c.remove) }

// place adds the new id to the leaves r overlaps.
func (c *Classifier) place(r *fivetuple.PackedRule, id uint32) int {
	writes, _ := c.spliceLeaves(r, id, true)
	return writes
}

// remove takes the id of the first-installed rule with r's matches and
// priority out of the leaves r overlaps.
func (c *Classifier) remove(r fivetuple.PackedRule) (int, bool) { return c.spliceLeaves(&r, 0, false) }

// spliceLeaves adds id to (insert) or removes it from every leaf whose region
// r overlaps — the leaves a fresh build would store r in. Leaf numbers rise
// with node index, so one pass over the records meets a chunk's leaves
// together, and each chunk holding such a leaf is replaced once. A delete
// takes its id from the first such leaf, before writing anything, and
// reports false when that leaf holds no entry with r's matches and priority.
// It returns the number of leaves it wrote.
func (c *Classifier) spliceLeaves(r *fivetuple.PackedRule, id uint32, insert bool) (writes int, ok bool) {
	var touched uint64
	chunk := -1
	for base := 0; base < len(c.nodes); base += nodeWords {
		rec := c.nodes[base : base+nodeWords]
		if rec[nwFlags]&leafFlag == 0 || !ruleOverlapsRegion(r, regionOf(rec)) {
			continue
		}
		leaf := int(rec[nwA])
		if chunk < 0 && !insert {
			if id, ok = c.find(c.leaves.List(leaf), r); !ok {
				return 0, false
			}
		}
		if leaf>>cow.ChunkShift != chunk {
			if chunk >= 0 {
				writes += c.rewriteChunk(chunk, touched, id, insert)
			}
			chunk, touched = leaf>>cow.ChunkShift, 0
		}
		touched |= 1 << (leaf & (cow.ChunkLen - 1))
	}
	if chunk >= 0 {
		writes += c.rewriteChunk(chunk, touched, id, insert)
	}
	return writes, true
}

// find returns the id of the first entry of a leaf list with r's matches and
// priority: the first installed of them, as the list is best-first.
func (c *Classifier) find(list []uint32, r *fivetuple.PackedRule) (uint32, bool) {
	for _, id := range list {
		if c.At(int(id)).Same(r) {
			return id, true
		}
	}
	return 0, false
}

// rewriteChunk replaces leaf chunk k by a copy in which every touched leaf
// has gained id in its best-first place (insert) or lost it, keeps the
// leaf-occupancy counters and returns the number of leaves it wrote.
func (c *Classifier) rewriteChunk(k int, touched uint64, id uint32, insert bool) (writes int) {
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
		writes++
	}
	if !insert {
		c.leaves.Remove(k, touched, id)
		return writes
	}
	p := c.At(int(id)).Priority
	c.leaves.Insert(k, touched, id, func(list []uint32) int {
		at := 0
		for at < len(list) && c.At(int(list[at])).Priority <= p {
			at++
		}
		return at
	})
	return writes
}

// OverflowPtrs returns the number of leaf entries beyond binth in excess of
// what the build itself produced (deep or fully overlapping rule sets can
// leave overfull leaves even in a fresh tree, which is not delta drift).
func (c *Classifier) OverflowPtrs() int { return max(c.overflowPtrs-c.baseOverflow, 0) }

// Degradation estimates how far the delta-updated tree has drifted from a
// freshly built one, as the fraction of rules now sitting in overfull
// leaves: 0 right after a build, approaching 1 when the leaf scans have
// outgrown binth everywhere. The classifier stays correct regardless —
// degradation only measures lookup-cost drift.
func (c *Classifier) Degradation() float64 {
	if c.NumRules() == 0 {
		return 0
	}
	d := float64(c.OverflowPtrs()) / float64(c.NumRules())
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
}
