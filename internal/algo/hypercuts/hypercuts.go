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
// record in one pointer-free slice, children linked by node index instead of
// pointer. Leaves list stable rule ids in exact-fit chunks of 64 leaves,
// best-first by (priority, id), and a lookup answers in those ids; the rules
// themselves are 40-byte fivetuple.PackedRule records by id, which the leaf
// scan reads and which carry the verdict. So a delta update writes the chunks
// of the leaves its rule overlaps and the record chunk it fills, never the
// node records, which every clone shares. Classify allocates nothing.
package hypercuts

import (
	"fmt"
	"math"
	"slices"

	"sdnpc/internal/cow"
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

// Flat node record layout. Every node is nodeWords consecutive words:
//
//	word 0        flags — leafFlag for a leaf, else the cut count (1 or 2)
//	word 1        leaf: leaf number, its list's place in the leaf chunks
//	              internal: node index of the first child (children of one
//	              node are laid out contiguously, so one base serves all)
//	word 2        internal: dim0<<16 | cuts0
//	word 3        internal: dim1<<16 | cuts1
//	words 4..8    region lo, one word per dimension
//	words 9..13   region hi, one word per dimension
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
	cfg Config

	// nodes holds the node records. No delta writes them, so every clone
	// shares them.
	nodes []uint32

	// Records stores the rules' records by stable id, best-first by
	// (priority, id), with the delta debt; leaves holds the leaf lists of
	// those ids, cow.ChunkLen leaves a chunk. A delta replaces the chunks it
	// writes.
	fivetuple.Records
	leaves cow.Lists

	nodeCount int
	leafCount int
	rulePtrs  int
	maxDepth  int

	// Drift accounting (see delta.go): leaf-occupancy metrics anchored at
	// Build time.
	maxLeaf      int
	baseOverflow int
	overflowPtrs int
}

// Build constructs a HyperCuts tree for the rule set.
func Build(rs *fivetuple.RuleSet, cfg Config) (*Classifier, error) {
	return BuildRules(rs.Rules(), cfg)
}

// BuildRules constructs a HyperCuts tree over rules, best-first — ascending
// priority, ties in installation order — with rule i under id i, keeping
// each rule's record with the priority it has. It refuses a rule the record
// cannot encode, naming the dimension, and keeps nothing of the slice.
func BuildRules(rules []fivetuple.Rule, cfg Config) (*Classifier, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	recs, err := fivetuple.NewRecords("hypercuts", rules)
	if err != nil {
		return nil, err
	}
	c := &Classifier{cfg: cfg, Records: recs}
	c.build()
	c.initLeafMetrics()
	return c, nil
}

// pendingNode is a laid-out node awaiting expansion: its rule ids, best-first,
// and its depth. guard marks a child that did not shrink its parent's list;
// it becomes a leaf whatever its size, which stops unbounded recursion on
// fully overlapping rules.
type pendingNode struct {
	ids   []uint32
	depth int
	guard bool
}

// build lays the tree out breadth-first, so each node's children are
// contiguous records and one child-base index replaces a pointer array. A
// node's ids are a filtered run of its parent's, so every list is best-first
// as it stands. A cut node carves all its children's lists out of one slab;
// leaf lists go into the leaf chunks 64 at a time.
func (c *Classifier) build() {
	all := make([]uint32, c.NumRules())
	for i := range all {
		all[i] = uint32(i)
	}
	c.nodes = appendRecord(nil, fullRegion())
	queue := []pendingNode{{ids: all}}
	var (
		keys      = make([]uint64, len(all)) // chooseCuts' scratch; no list is longer than the root's
		lists     []uint32                   // the children's lists before they are carved
		ends      []int
		leafLists [cow.ChunkLen][]uint32
	)
	for i := 0; i < len(queue); i++ {
		q := queue[i]
		rec := c.nodes[i*nodeWords : (i+1)*nodeWords]
		reg := regionOf(rec)
		var dims, cuts [2]int
		n := 0
		if !q.guard {
			c.maxDepth = max(c.maxDepth, q.depth)
			if len(q.ids) > c.cfg.Binth && q.depth < c.cfg.MaxDepth {
				dims, cuts, n = c.chooseCuts(q.ids, reg, keys)
			}
		}
		if n == 0 {
			rec[nwFlags], rec[nwA] = leafFlag, uint32(c.leafCount)
			leafLists[c.leafCount&(cow.ChunkLen-1)] = q.ids
			c.leafCount++
			c.rulePtrs += len(q.ids)
			if c.leafCount&(cow.ChunkLen-1) == 0 {
				c.leaves.AppendChunk(leafLists[:])
			}
			continue
		}
		rec[nwFlags], rec[nwA] = uint32(n), uint32(len(queue))
		children := 1
		for d := range n {
			rec[nwB+d] = uint32(dims[d])<<16 | uint32(cuts[d])
			children *= cuts[d]
		}
		lists, ends = lists[:0], ends[:0]
		c.nodes, queue = grow(c.nodes, nodeWords*children), grow(queue, children)
		for child := range children {
			childReg := childRegion(reg, dims[:n], cuts[:n], child)
			for _, id := range q.ids {
				if ruleOverlapsRegion(c.At(int(id)), childReg) {
					lists = append(lists, id)
				}
			}
			ends = append(ends, len(lists))
			c.nodes = appendRecord(c.nodes, childReg)
		}
		slab, start := slices.Clone(lists), 0
		for _, end := range ends {
			queue = append(queue, pendingNode{ids: slab[start:end:end], depth: q.depth + 1, guard: end-start == len(q.ids)})
			start = end
		}
	}
	if rest := c.leafCount & (cow.ChunkLen - 1); rest > 0 {
		c.leaves.AppendChunk(leafLists[:rest])
	}
	c.nodes = slices.Clone(c.nodes) // the published tree keeps no growth slack
	c.nodeCount = len(queue)
}

// grow makes room for n more elements, at least doubling the capacity when
// it must grow: the build's node records and queue would otherwise grow by
// append's 1.25× steps and copy themselves about five times over.
func grow[S ~[]E, E any](s S, n int) S {
	if len(s)+n > cap(s) {
		s = slices.Grow(s, max(n, len(s)))
	}
	return s
}

// appendRecord appends a node record covering reg, flags and links zero.
func appendRecord(nodes []uint32, reg region) []uint32 {
	var rec [nodeWords]uint32
	for d := range fivetuple.NumFields {
		rec[nwLo+d], rec[nwHi+d] = uint32(reg.lo[d]), uint32(reg.hi[d])
	}
	return append(nodes, rec[:]...)
}

// regionOf reads a node record's region.
func regionOf(rec []uint32) region {
	var reg region
	for d := range fivetuple.NumFields {
		reg.lo[d], reg.hi[d] = uint64(rec[nwLo+d]), uint64(rec[nwHi+d])
	}
	return reg
}

// chooseCuts picks the dimensions to cut — the one or two with the most
// distinct rule projections, the earlier dimension on a tie — and the number
// of slices per dimension; n is how many it picked. keys is scratch at least
// len(ids) long: a dimension's projections are counted by sorting them.
func (c *Classifier) chooseCuts(ids []uint32, reg region, keys []uint64) (dims, cuts [2]int, n int) {
	var distinct [2]int
	for di, f := range fivetuple.Fields() {
		if reg.hi[di] == reg.lo[di] {
			continue // nothing left to cut in this dimension
		}
		proj := keys[:len(ids)]
		for j, id := range ids {
			lo, hi := c.At(int(id)).Range(f)
			proj[j] = uint64(lo)<<32 | uint64(hi)
		}
		slices.Sort(proj)
		d := 1
		for j := 1; j < len(proj); j++ {
			if proj[j] != proj[j-1] {
				d++
			}
		}
		switch {
		case d <= 1:
		case d > distinct[0]:
			dims[1], distinct[1] = dims[0], distinct[0]
			dims[0], distinct[0] = di, d
		case d > distinct[1]:
			dims[1], distinct[1] = di, d
		}
	}
	if distinct[0] == 0 {
		return dims, cuts, 0
	}
	// Cut the best one or two dimensions (the HyperCuts multi-dimensional
	// cut), splitting the cut budget between them.
	budget := int(c.cfg.SpaceFactor * math.Sqrt(float64(len(ids))))
	if budget > c.cfg.MaxCutsPerNode {
		budget = c.cfg.MaxCutsPerNode
	}
	if budget < 2 {
		budget = 2
	}
	if distinct[1] == 0 {
		return dims, [2]int{budget}, 1
	}
	per := int(math.Sqrt(float64(budget)))
	if per < 2 {
		per = 2
	}
	return dims, [2]int{per, per}, 2
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

func ruleOverlapsRegion(r *fivetuple.PackedRule, reg region) bool {
	for di, f := range fivetuple.Fields() {
		lo, hi := r.Range(f)
		if uint64(hi) < reg.lo[di] || uint64(lo) > reg.hi[di] {
			return false
		}
	}
	return true
}

// leaf walks the tree to the header's leaf and returns its rule ids and the
// memory accesses so far: the nodes visited plus the leaf header.
func (c *Classifier) leaf(h fivetuple.Header) (ids []uint32, accesses int) {
	w := c.nodes
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
	return c.leaves.List(int(w[base+nwA])), accesses + 1
}

// Classify returns the id of the highest-priority matching rule, whether any
// rule matched and the number of memory accesses (tree nodes visited plus
// leaf rules scanned). It allocates nothing.
func (c *Classifier) Classify(h fivetuple.Header) (id int, matched bool, accesses int) {
	ids, accesses := c.leaf(h)
	for j, id := range ids {
		if c.At(int(id)).Matches(&h) {
			return int(id), true, accesses + j + 1 // leaf rules are best-first
		}
	}
	return 0, false, accesses + len(ids)
}

// ClassifyAll appends to dst the ids of the rules matching the header,
// best-first, up to and including the first terminating one — the
// multi-action chain — and returns the extended slice plus the number of
// memory accesses, which counts the whole leaf, as an enumeration of every
// match reads it. A lookup visits exactly one leaf and each rule is stored in
// every leaf its region overlaps, so the leaf holds every match. dst is
// appended to without allocating when it has sufficient capacity.
func (c *Classifier) ClassifyAll(h fivetuple.Header, dst []int) ([]int, int) {
	ids, accesses := c.leaf(h)
	for _, id := range ids {
		if r := c.At(int(id)); r.Matches(&h) {
			dst = append(dst, int(id))
			if !r.NonTerminating {
				break
			}
		}
	}
	return dst, accesses + len(ids)
}

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
	return c.nodeCount*nodeBits + c.rulePtrs*rulePtrBits + c.NumRules()*ruleBits
}
