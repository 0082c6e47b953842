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
// a delta renumbers nothing: it rewrites the chunks of the leaves its rule
// overlaps, about two leaves in one chunk on ACL sets, and an insert appends
// the rule's record to the store under the next id.
//
// A deleted rule's id is retired, not reused, which keeps (priority, id) the
// best-first order with no sequence numbers. The store keeps retired records
// until the next build, so a delete that would leave more dead ids than live
// ones plus deadSlack is refused: the caller rebuilds, which renumbers.
//
// The price is drift: inserts can grow a leaf beyond binth (a fresh build
// would have split it), so the linear leaf scan slowly lengthens. The tree
// stays correct — Degradation quantifies the drift so a policy layer can
// amortise it away with an occasional rebuild.

// deadSlack is how far dead ids may outnumber live ones before a delete is
// refused.
const deadSlack = 64

// Clone returns a copy of the classifier for delta updates. It shares
// everything with c — the node records, the leaf chunks and the record store —
// and a delta on either side copies what it writes: the leaf directory the
// first time, then the chunks it changes. Clone takes c's ownership of them
// away, which is a write to c needing the same serialisation as a delta,
// though no reader of c sees it.
func (c *Classifier) Clone() *Classifier {
	cp := *c
	cp.leaves = c.leaves.Clone()
	cp.rules = c.rules.Clone()
	return &cp
}

// pack returns r's record, or an error naming the dimensions the tree cannot
// encode.
func pack(r *fivetuple.Rule) (fivetuple.PackedRule, error) {
	p, ok := fivetuple.PackRule(r)
	if !ok {
		return p, fmt.Errorf("hypercuts: rule %s needs %s, which the tree cannot encode", *r, r.Dims()&^fivetuple.DimMultiAction)
	}
	return p, nil
}

// Insert adds rule r under the next id to every leaf whose region it
// overlaps, after the entries of the same or a better priority: the
// leaf-local delta update. It refuses, changing nothing, a rule the tree
// cannot encode.
func (c *Classifier) Insert(r fivetuple.Rule) error {
	p, err := pack(&r)
	if err != nil {
		return err
	}
	id := uint32(c.rules.Len())
	c.rules.Append(p)
	c.live++
	c.spliceLeaves(&p, id, true)
	c.deltas++
	return nil
}

// Delete removes the first-installed rule with r's matches and priority from
// every leaf storing it and retires its id. It refuses, changing nothing,
// when no such rule is installed — a rule the tree cannot encode never is —
// or when too many ids are already dead. Leaves are never re-merged; the
// (cheap) excess depth this can leave behind is amortised away by the policy
// layer's periodic rebuild.
func (c *Classifier) Delete(r fivetuple.Rule) error {
	p, ok := fivetuple.PackRule(&r)
	if !ok {
		return fmt.Errorf("hypercuts: rule %s priority %d is not installed", r, r.Priority)
	}
	return c.delete(&p)
}

// delete is Delete of the rule with p's matches and priority.
func (c *Classifier) delete(p *fivetuple.PackedRule) error {
	if dead := c.rules.Len() - c.live; dead+1 > c.live-1+deadSlack {
		return fmt.Errorf("hypercuts: %d dead ids beside %d live rules: rebuild to renumber", dead, c.live)
	}
	if !c.spliceLeaves(p, 0, false) {
		return fmt.Errorf("hypercuts: no rule with these matches is installed at priority %d", p.Priority)
	}
	c.live--
	c.deltas++
	return nil
}

// InsertAt is Insert behind the positional signature of the benchmark's
// structure ladder: idx must lie in [0, NumRules()], and r goes where its
// priority places it — at idx when priorities are the best-first positions,
// as a fivetuple.RuleSet numbers them.
func (c *Classifier) InsertAt(r fivetuple.Rule, idx int) error {
	if idx < 0 || idx > c.live {
		return fmt.Errorf("hypercuts: insert index %d out of range [0,%d]", idx, c.live)
	}
	return c.Insert(r)
}

// DeleteAt deletes the first-installed rule with the matches and priority of
// rule id. On a tree built from a fivetuple.RuleSet, id is the rule's
// best-first position until the first delta.
func (c *Classifier) DeleteAt(id int) error {
	if id < 0 || id >= c.rules.Len() {
		return fmt.Errorf("hypercuts: delete id %d out of range [0,%d)", id, c.rules.Len())
	}
	return c.delete(c.rules.At(id))
}

// spliceLeaves adds id to (insert) or removes it from every leaf whose region
// r overlaps — the leaves a fresh build would store r in. Leaf numbers rise
// with node index, so one pass over the records meets a chunk's leaves
// together, and each chunk holding such a leaf is replaced once. A delete
// takes its id from the first such leaf, before writing anything, and
// reports false when that leaf holds no entry with r's matches and priority.
func (c *Classifier) spliceLeaves(r *fivetuple.PackedRule, id uint32, insert bool) bool {
	var touched uint64
	chunk := -1
	for base := 0; base < len(c.nodes); base += nodeWords {
		rec := c.nodes[base : base+nodeWords]
		if rec[nwFlags]&leafFlag == 0 || !ruleOverlapsRegion(r, regionOf(rec)) {
			continue
		}
		leaf := int(rec[nwA])
		if chunk < 0 && !insert {
			var ok bool
			if id, ok = c.find(c.leaves.List(leaf), r); !ok {
				return false
			}
		}
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
	return true
}

// find returns the id of the first entry of a leaf list with r's matches and
// priority: the first installed of them, as the list is best-first.
func (c *Classifier) find(list []uint32, r *fivetuple.PackedRule) (uint32, bool) {
	for _, id := range list {
		if c.rules.At(int(id)).Same(r) {
			return id, true
		}
	}
	return 0, false
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
	p := c.rules.At(int(id)).Priority
	c.leaves.Insert(k, touched, id, func(list []uint32) int {
		at := 0
		for at < len(list) && c.rules.At(int(list[at])).Priority <= p {
			at++
		}
		return at
	})
}

// DeltaStats reports the delta debt accumulated since the tree was built.
type DeltaStats struct {
	// Deltas is the number of Insert/Delete ops applied since Build.
	Deltas int
	// DeadIDs is the number of ids deletes retired since Build.
	DeadIDs int
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
	return DeltaStats{Deltas: c.deltas, DeadIDs: c.rules.Len() - c.live, Writes: c.deltaWrites, OverflowPtrs: over}
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
