// Package hypercuts implements the HyperCuts decision-tree packet classifier
// (Singh et al., SIGCOMM 2003), the decision-tree baseline of Table I.
//
// HyperCuts recursively partitions the multi-dimensional rule space: each
// internal node cuts one or more dimensions into equal-sized slices and every
// child receives the rules overlapping its slice. Recursion stops when a node
// holds at most binth rules (a leaf), which are then searched linearly.
// Lookup walks one child per level and finishes with the leaf's linear scan;
// the number of memory accesses is the path length plus the leaf occupancy —
// the quantity behind HyperCuts' Table I row.
//
// The built tree is flat: Build lays every node out as a fixed 14-word
// record in one contiguous arena, children linked by node index instead of
// pointer, leaf rule lists as index spans with slack capacity for in-place
// delta inserts. The published structure is two pointer-free allocations
// (the arena and the rule table), which the collector scans in O(1), and
// Classify allocates nothing.
package hypercuts

import (
	"fmt"
	"math"
	"sort"

	"sdnpc/internal/arena"
	"sdnpc/internal/fivetuple"
)

// Config parameterises tree construction.
type Config struct {
	// Binth is the maximum number of rules in a leaf.
	Binth int
	// SpaceFactor bounds the number of cuts per node: the cut count chosen
	// for a node is at most SpaceFactor * sqrt(rules at the node), the
	// heuristic from the HyperCuts paper.
	SpaceFactor float64
	// MaxCutsPerNode caps the total child count of one node.
	MaxCutsPerNode int
	// MaxDepth bounds recursion as a safety net for highly overlapping rule
	// sets.
	MaxDepth int
}

// DefaultConfig returns the construction parameters commonly used in
// HyperCuts evaluations (binth 16, space factor 4).
func DefaultConfig() Config {
	return Config{Binth: 16, SpaceFactor: 4, MaxCutsPerNode: 64, MaxDepth: 32}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Binth < 1 {
		return fmt.Errorf("hypercuts: binth %d must be positive", c.Binth)
	}
	if c.SpaceFactor <= 0 {
		return fmt.Errorf("hypercuts: space factor %v must be positive", c.SpaceFactor)
	}
	if c.MaxCutsPerNode < 2 {
		return fmt.Errorf("hypercuts: max cuts %d must be at least 2", c.MaxCutsPerNode)
	}
	if c.MaxDepth < 1 {
		return fmt.Errorf("hypercuts: max depth %d must be positive", c.MaxDepth)
	}
	return nil
}

// region is a hyper-rectangle of the 5-dimensional header space. Every
// dimension is at most 32 bits wide, so the bounds fit uint32 in the flat
// node records; the build keeps them as uint64 for overflow-free width
// arithmetic.
type region struct {
	lo [fivetuple.NumFields]uint64
	hi [fivetuple.NumFields]uint64
}

func fullRegion() region {
	var r region
	for i, f := range fivetuple.Fields() {
		r.lo[i] = 0
		r.hi[i] = dimensionMax(f)
	}
	return r
}

func dimensionMax(f fivetuple.Field) uint64 {
	switch f {
	case fivetuple.FieldSrcIP, fivetuple.FieldDstIP:
		return math.MaxUint32
	case fivetuple.FieldSrcPort, fivetuple.FieldDstPort:
		return math.MaxUint16
	default:
		return math.MaxUint8
	}
}

// ruleRange returns the rule's covered range in the given dimension.
func ruleRange(r fivetuple.Rule, f fivetuple.Field) (uint64, uint64) {
	switch f {
	case fivetuple.FieldSrcIP:
		p := r.SrcPrefix.Canonical()
		span := uint64(1) << (32 - uint64(p.Len))
		return uint64(p.Addr), uint64(p.Addr) + span - 1
	case fivetuple.FieldDstIP:
		p := r.DstPrefix.Canonical()
		span := uint64(1) << (32 - uint64(p.Len))
		return uint64(p.Addr), uint64(p.Addr) + span - 1
	case fivetuple.FieldSrcPort:
		return uint64(r.SrcPort.Lo), uint64(r.SrcPort.Hi)
	case fivetuple.FieldDstPort:
		return uint64(r.DstPort.Lo), uint64(r.DstPort.Hi)
	default:
		if r.Protocol.IsWildcard() {
			return 0, 255
		}
		return uint64(r.Protocol.Value), uint64(r.Protocol.Value)
	}
}

func headerValue(h fivetuple.Header, f fivetuple.Field) uint64 {
	switch f {
	case fivetuple.FieldSrcIP:
		return uint64(h.SrcIP)
	case fivetuple.FieldDstIP:
		return uint64(h.DstIP)
	case fivetuple.FieldSrcPort:
		return uint64(h.SrcPort)
	case fivetuple.FieldDstPort:
		return uint64(h.DstPort)
	default:
		return uint64(h.Protocol)
	}
}

// node is one decision-tree node of the transient build form; flatten
// converts the pointer tree into arena records and drops it.
type node struct {
	// Leaf nodes hold rule indices; internal nodes hold the cut description
	// and children.
	leafRules []int

	cutDims  []int // indices into fivetuple.Fields()
	cutsPer  []int // number of slices per cut dimension
	children []*node
	region   region
}

func (n *node) isLeaf() bool { return n.children == nil }

// Flat node record layout. Every node is nodeWords consecutive words:
//
//	word 0        flags — leafFlag for a leaf, else the cut count (1 or 2)
//	word 1        leaf: word offset of the rule-index span
//	              internal: node index of the first child (children of one
//	              node are laid out contiguously, so one base serves all)
//	word 2        leaf: live entry count     internal: dim0<<16 | cuts0
//	word 3        leaf: span capacity        internal: dim1<<16 | cuts1
//	words 4..8    region lo, one word per dimension
//	words 9..13   region hi, one word per dimension
//
// Leaf spans carry slack capacity so delta inserts edit in place; a span
// that outgrows its capacity relocates into the spare region at the arena
// tail (growing the arena when even that is exhausted), leaking the old
// span as tracked garbage until the next rebuild re-compacts.
const (
	nodeWords = 14
	nwFlags   = 0
	nwA       = 1
	nwB       = 2
	nwC       = 3
	nwLo      = 4
	nwHi      = 9

	leafFlag = 1 << 31
)

// Classifier is a HyperCuts decision tree built from a rule set.
type Classifier struct {
	cfg   Config
	rules []fivetuple.Rule

	// The flat tree: node records first, then the leaf spans, then the
	// spare region [bump, limit) feeding span relocations.
	ar    *arena.Arena
	words []uint32 // the arena word space; refreshed after Grow
	bump  int
	limit int

	nodeCount int
	leafCount int
	rulePtrs  int
	maxDepth  int

	// Delta accounting (see delta.go): leaf-occupancy metrics anchored at
	// Build time, and the op/write counters of updates applied since.
	maxLeaf      int
	baseOverflow int
	overflowPtrs int
	deltas       int
	deltaWrites  int
}

// Build constructs a HyperCuts tree for the rule set and flattens it.
func Build(rs *fivetuple.RuleSet, cfg Config) (*Classifier, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if rs.Len() == 0 {
		return nil, fmt.Errorf("hypercuts: empty rule set")
	}
	c := &Classifier{cfg: cfg, rules: rs.Rules()}
	all := make([]int, len(c.rules))
	for i := range all {
		all[i] = i
	}
	root := c.build(all, fullRegion(), 0)
	c.flatten(root)
	c.initLeafMetrics()
	return c, nil
}

func (c *Classifier) build(ruleIdx []int, reg region, depth int) *node {
	c.nodeCount++
	if depth > c.maxDepth {
		c.maxDepth = depth
	}
	n := &node{region: reg}
	if len(ruleIdx) <= c.cfg.Binth || depth >= c.cfg.MaxDepth {
		n.leafRules = append([]int(nil), ruleIdx...)
		sort.Ints(n.leafRules)
		c.leafCount++
		c.rulePtrs += len(n.leafRules)
		return n
	}

	dims, cuts := c.chooseCuts(ruleIdx, reg)
	if len(dims) == 0 {
		n.leafRules = append([]int(nil), ruleIdx...)
		sort.Ints(n.leafRules)
		c.leafCount++
		c.rulePtrs += len(n.leafRules)
		return n
	}
	n.cutDims = dims
	n.cutsPer = cuts

	totalChildren := 1
	for _, k := range cuts {
		totalChildren *= k
	}
	n.children = make([]*node, totalChildren)
	for child := 0; child < totalChildren; child++ {
		childReg := childRegion(reg, dims, cuts, child)
		var childRules []int
		for _, ri := range ruleIdx {
			if ruleOverlapsRegion(c.rules[ri], childReg) {
				childRules = append(childRules, ri)
			}
		}
		// Heuristic guard: a child that did not shrink its rule list becomes
		// a leaf to prevent unbounded recursion on fully overlapping rules.
		if len(childRules) == len(ruleIdx) {
			leaf := &node{region: childReg, leafRules: append([]int(nil), childRules...)}
			sort.Ints(leaf.leafRules)
			c.nodeCount++
			c.leafCount++
			c.rulePtrs += len(leaf.leafRules)
			n.children[child] = leaf
			continue
		}
		n.children[child] = c.build(childRules, childReg, depth+1)
	}
	return n
}

// flatten lays the pointer tree out as arena records: a breadth-first
// numbering keeps every node's children contiguous so one child-base index
// replaces the child pointer array, then each leaf's rule list becomes an
// index span with slack. The pointer tree is garbage once this returns.
func (c *Classifier) flatten(root *node) {
	order := []*node{root}
	childBase := make([]int, 1, c.nodeCount)
	for i := 0; i < len(order); i++ {
		n := order[i]
		childBase = childBase[:len(order)]
		if !n.isLeaf() {
			childBase[i] = len(order)
			order = append(order, n.children...)
		}
	}
	b := arena.NewBuilder()
	_, nodes := b.Words(nodeWords * len(order))
	slack := c.cfg.Binth/2 + 2
	totalSpan := 0
	for i, n := range order {
		rec := nodes[i*nodeWords : (i+1)*nodeWords]
		for d := 0; d < fivetuple.NumFields; d++ {
			rec[nwLo+d] = uint32(n.region.lo[d])
			rec[nwHi+d] = uint32(n.region.hi[d])
		}
		if n.isLeaf() {
			spanCap := len(n.leafRules) + slack
			h, span := b.Words(spanCap)
			for j, ri := range n.leafRules {
				span[j] = uint32(ri)
			}
			rec[nwFlags] = leafFlag
			rec[nwA] = uint32(h)
			rec[nwB] = uint32(len(n.leafRules))
			rec[nwC] = uint32(spanCap)
			totalSpan += spanCap
			continue
		}
		rec[nwFlags] = uint32(len(n.cutDims))
		rec[nwA] = uint32(childBase[i])
		rec[nwB] = uint32(n.cutDims[0])<<16 | uint32(n.cutsPer[0])
		if len(n.cutDims) == 2 {
			rec[nwC] = uint32(n.cutDims[1])<<16 | uint32(n.cutsPer[1])
		}
	}
	spare := totalSpan/2 + 64
	b.Words(spare)
	c.ar = b.Finish()
	c.words = c.ar.Words(0, c.ar.WordLen())
	c.limit = c.ar.WordLen()
	c.bump = c.limit - spare
}

// spareAlloc carves n words out of the spare region for a relocated leaf
// span, growing the arena when the region is exhausted. Grow reallocates
// the word space, so callers must refresh any local view afterwards.
func (c *Classifier) spareAlloc(n int) int {
	if c.bump+n > c.limit {
		extra := c.limit/2 + 64
		if extra < 2*n {
			extra = 2 * n
		}
		c.ar.Grow(extra)
		c.words = c.ar.Words(0, c.ar.WordLen())
		c.limit = c.ar.WordLen()
	}
	off := c.bump
	c.bump += n
	return off
}

// chooseCuts picks the dimensions to cut (those with the most distinct rule
// projections) and the number of slices per dimension.
func (c *Classifier) chooseCuts(ruleIdx []int, reg region) (dims []int, cuts []int) {
	fields := fivetuple.Fields()
	type dimScore struct {
		dim      int
		distinct int
	}
	scores := make([]dimScore, 0, len(fields))
	for di, f := range fields {
		if reg.hi[di] == reg.lo[di] {
			continue // nothing left to cut in this dimension
		}
		uniq := make(map[[2]uint64]struct{})
		for _, ri := range ruleIdx {
			lo, hi := ruleRange(c.rules[ri], f)
			uniq[[2]uint64{lo, hi}] = struct{}{}
		}
		if len(uniq) > 1 {
			scores = append(scores, dimScore{dim: di, distinct: len(uniq)})
		}
	}
	if len(scores) == 0 {
		return nil, nil
	}
	sort.Slice(scores, func(i, j int) bool { return scores[i].distinct > scores[j].distinct })
	// Cut the best one or two dimensions (the HyperCuts multi-dimensional
	// cut), splitting the cut budget between them.
	budget := int(c.cfg.SpaceFactor * math.Sqrt(float64(len(ruleIdx))))
	if budget > c.cfg.MaxCutsPerNode {
		budget = c.cfg.MaxCutsPerNode
	}
	if budget < 2 {
		budget = 2
	}
	chosen := scores
	if len(chosen) > 2 {
		chosen = chosen[:2]
	}
	if len(chosen) == 1 {
		return []int{chosen[0].dim}, []int{budget}
	}
	per := int(math.Sqrt(float64(budget)))
	if per < 2 {
		per = 2
	}
	return []int{chosen[0].dim, chosen[1].dim}, []int{per, per}
}

// childRegion computes the sub-region of the child with the given index.
func childRegion(parent region, dims, cuts []int, child int) region {
	reg := parent
	for i, di := range dims {
		k := cuts[i]
		slice := child % k
		child /= k
		span := parent.hi[di] - parent.lo[di] + 1
		width := span / uint64(k)
		if width == 0 {
			width = 1
		}
		lo := parent.lo[di] + uint64(slice)*width
		hi := lo + width - 1
		if slice == k-1 || hi > parent.hi[di] {
			hi = parent.hi[di]
		}
		if lo > parent.hi[di] {
			lo = parent.hi[di]
		}
		reg.lo[di] = lo
		reg.hi[di] = hi
	}
	return reg
}

func ruleOverlapsRegion(r fivetuple.Rule, reg region) bool {
	for di, f := range fivetuple.Fields() {
		lo, hi := ruleRange(r, f)
		if hi < reg.lo[di] || lo > reg.hi[di] {
			return false
		}
	}
	return true
}

// ruleOverlapsNode is the flat-record form of ruleOverlapsRegion: the node's
// region bounds are read straight from its arena record.
func ruleOverlapsNode(r fivetuple.Rule, rec []uint32) bool {
	for di, f := range fivetuple.Fields() {
		lo, hi := ruleRange(r, f)
		if hi < uint64(rec[nwLo+di]) || lo > uint64(rec[nwHi+di]) {
			return false
		}
	}
	return true
}

// Classify returns the index of the highest-priority matching rule, whether
// any rule matched and the number of memory accesses (tree nodes visited plus
// leaf rules scanned). The walk touches only the flat arena and the rule
// table; it allocates nothing.
func (c *Classifier) Classify(h fivetuple.Header) (ruleIndex int, matched bool, accesses int) {
	w := c.words
	fields := fivetuple.Fields()
	base := 0
	for w[base+nwFlags]&leafFlag == 0 {
		accesses++
		cutCount := int(w[base+nwFlags])
		child := 0
		mult := 1
		for i := 0; i < cutCount; i++ {
			dk := w[base+nwB+i]
			di := int(dk >> 16)
			k := int(dk & 0xFFFF)
			lo := uint64(w[base+nwLo+di])
			span := uint64(w[base+nwHi+di]) - lo + 1
			width := span / uint64(k)
			if width == 0 {
				width = 1
			}
			v := headerValue(h, fields[di])
			if v < lo {
				v = lo
			}
			slice := int((v - lo) / width)
			if slice >= k {
				slice = k - 1
			}
			child += slice * mult
			mult *= k
		}
		base = (int(w[base+nwA]) + child) * nodeWords
	}
	accesses++ // reading the leaf header
	best := -1
	off := int(w[base+nwA])
	n := int(w[base+nwB])
	for j := 0; j < n; j++ {
		accesses++
		ri := int(w[off+j])
		if c.rules[ri].Matches(h) {
			best = ri
			break // leaf rules are sorted by priority
		}
	}
	if best < 0 {
		return 0, false, accesses
	}
	return best, true, accesses
}

// ClassifyAll appends the indices of every rule matching the header to dst
// and returns the extended slice plus the number of memory accesses. A lookup
// visits exactly one leaf and each rule is stored in every leaf its region
// overlaps, so the full scan of that leaf enumerates each match exactly once,
// in ascending (best-first) index order — the delta path keeps leaf spans
// sorted. dst is appended to without allocating when it has sufficient
// capacity.
func (c *Classifier) ClassifyAll(h fivetuple.Header, dst []int) ([]int, int) {
	w := c.words
	fields := fivetuple.Fields()
	base := 0
	accesses := 0
	for w[base+nwFlags]&leafFlag == 0 {
		accesses++
		cutCount := int(w[base+nwFlags])
		child := 0
		mult := 1
		for i := 0; i < cutCount; i++ {
			dk := w[base+nwB+i]
			di := int(dk >> 16)
			k := int(dk & 0xFFFF)
			lo := uint64(w[base+nwLo+di])
			span := uint64(w[base+nwHi+di]) - lo + 1
			width := span / uint64(k)
			if width == 0 {
				width = 1
			}
			v := headerValue(h, fields[di])
			if v < lo {
				v = lo
			}
			slice := int((v - lo) / width)
			if slice >= k {
				slice = k - 1
			}
			child += slice * mult
			mult *= k
		}
		base = (int(w[base+nwA]) + child) * nodeWords
	}
	accesses++ // reading the leaf header
	off := int(w[base+nwA])
	n := int(w[base+nwB])
	for j := 0; j < n; j++ {
		accesses++
		ri := int(w[off+j])
		if c.rules[ri].Matches(h) {
			dst = append(dst, ri)
		}
	}
	return dst, accesses
}

// NumRules returns the length of the rule table the classifier answers in.
func (c *Classifier) NumRules() int { return len(c.rules) }

// Rule returns the rule at index i of that table, for reading only and until
// the next delta. Build renumbers priorities positionally, so only the rule's
// matches, action and termination are meaningful to a caller.
func (c *Classifier) Rule(i int) *fivetuple.Rule { return &c.rules[i] }

// NodeCount returns the number of tree nodes.
func (c *Classifier) NodeCount() int { return c.nodeCount }

// LeafCount returns the number of leaves.
func (c *Classifier) LeafCount() int { return c.leafCount }

// Depth returns the maximum tree depth.
func (c *Classifier) Depth() int { return c.maxDepth }

// MemoryBits returns the storage consumed by the tree: each node header
// stores its cut description and child pointer base (~128 bits), plus one
// 14-bit rule pointer per stored leaf rule and the rule table itself (each
// rule ~144 bits of match data).
func (c *Classifier) MemoryBits() int {
	const nodeBits = 128
	const rulePtrBits = 14
	const ruleBits = 144
	return c.nodeCount*nodeBits + c.rulePtrs*rulePtrBits + len(c.rules)*ruleBits
}
