package hypercuts

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"sdnpc/internal/classbench"
	"sdnpc/internal/fivetuple"
)

// The reference build: the recursive pointer-tree construction and the
// breadth-first flattening Build used before it laid the tree out directly,
// kept here as the definition of the tree Build must produce.

type refNode struct {
	leafRules []int
	cutDims   []int
	cutsPer   []int
	children  []*refNode
	region    region
}

type refTree struct {
	cfg                                      Config
	rules                                    []fivetuple.Rule
	nodeCount, leafCount, rulePtrs, maxDepth int
}

// refRuleRange is the rule's covered range in the given dimension, read
// from the rule itself rather than its packed record.
func refRuleRange(r fivetuple.Rule, f fivetuple.Field) (uint64, uint64) {
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

func refOverlapsRegion(r fivetuple.Rule, reg region) bool {
	for di, f := range fivetuple.Fields() {
		lo, hi := refRuleRange(r, f)
		if hi < reg.lo[di] || lo > reg.hi[di] {
			return false
		}
	}
	return true
}

func (t *refTree) build(ruleIdx []int, reg region, depth int) *refNode {
	t.nodeCount++
	if depth > t.maxDepth {
		t.maxDepth = depth
	}
	n := &refNode{region: reg}
	leaf := func(n *refNode, rules []int) *refNode {
		n.leafRules = append([]int(nil), rules...)
		sort.Ints(n.leafRules)
		t.leafCount++
		t.rulePtrs += len(n.leafRules)
		return n
	}
	if len(ruleIdx) <= t.cfg.Binth || depth >= t.cfg.MaxDepth {
		return leaf(n, ruleIdx)
	}
	dims, cuts := t.chooseCuts(ruleIdx, reg)
	if len(dims) == 0 {
		return leaf(n, ruleIdx)
	}
	n.cutDims, n.cutsPer = dims, cuts
	total := 1
	for _, k := range cuts {
		total *= k
	}
	n.children = make([]*refNode, total)
	for child := range total {
		childReg := childRegion(reg, dims, cuts, child)
		var childRules []int
		for _, ri := range ruleIdx {
			if refOverlapsRegion(t.rules[ri], childReg) {
				childRules = append(childRules, ri)
			}
		}
		if len(childRules) == len(ruleIdx) {
			t.nodeCount++
			n.children[child] = leaf(&refNode{region: childReg}, childRules)
			continue
		}
		n.children[child] = t.build(childRules, childReg, depth+1)
	}
	return n
}

func (t *refTree) chooseCuts(ruleIdx []int, reg region) (dims []int, cuts []int) {
	type dimScore struct{ dim, distinct int }
	var scores []dimScore
	for di, f := range fivetuple.Fields() {
		if reg.hi[di] == reg.lo[di] {
			continue
		}
		uniq := make(map[[2]uint64]struct{})
		for _, ri := range ruleIdx {
			lo, hi := refRuleRange(t.rules[ri], f)
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
	budget := min(int(t.cfg.SpaceFactor*math.Sqrt(float64(len(ruleIdx)))), t.cfg.MaxCutsPerNode)
	budget = max(budget, 2)
	if len(scores) == 1 {
		return []int{scores[0].dim}, []int{budget}
	}
	per := max(int(math.Sqrt(float64(budget))), 2)
	return []int{scores[0].dim, scores[1].dim}, []int{per, per}
}

// flatten numbers the pointer tree breadth-first: the node order and each
// internal node's child base.
func (t *refTree) flatten(root *refNode) (order []*refNode, childBase []int) {
	order = []*refNode{root}
	for i := 0; i < len(order); i++ {
		childBase = append(childBase, 0)
		if n := order[i]; n.children != nil {
			childBase[i] = len(order)
			order = append(order, n.children...)
		}
	}
	return order, childBase
}

// requireReferenceTree asserts that c's node records, leaf lists and tree
// statistics are the reference build's over the same rules.
func requireReferenceTree(t *testing.T, c *Classifier, rules []fivetuple.Rule, cfg Config) {
	t.Helper()
	ref := &refTree{cfg: cfg, rules: rules}
	all := make([]int, len(rules))
	for i := range all {
		all[i] = i
	}
	order, childBase := ref.flatten(ref.build(all, fullRegion(), 0))
	if got, want := [4]int{c.NodeCount(), c.LeafCount(), c.rulePtrs, c.Depth()}, [4]int{ref.nodeCount, ref.leafCount, ref.rulePtrs, ref.maxDepth}; got != want {
		t.Fatalf("nodes, leaves, rule pointers, depth = %v, reference %v", got, want)
	}
	if len(c.nodes) != nodeWords*len(order) {
		t.Fatalf("%d node words, reference %d nodes", len(c.nodes), len(order))
	}
	for i, n := range order {
		rec := c.nodes[i*nodeWords : (i+1)*nodeWords]
		if regionOf(rec) != n.region {
			t.Fatalf("node %d region %v, reference %v", i, regionOf(rec), n.region)
		}
		if n.children == nil {
			l := int(rec[nwA])
			var got []int // a fresh build gives rule i id i
			for _, id := range c.leaves.List(l) {
				got = append(got, int(id))
			}
			if rec[nwFlags] != leafFlag || !slices.Equal(got, n.leafRules) {
				t.Fatalf("node %d: flags %#x, leaf list %v; reference leaf %v", i, rec[nwFlags], got, n.leafRules)
			}
			continue
		}
		want := [4]uint32{uint32(len(n.cutDims)), uint32(childBase[i]), uint32(n.cutDims[0])<<16 | uint32(n.cutsPer[0])}
		if len(n.cutDims) == 2 {
			want[3] = uint32(n.cutDims[1])<<16 | uint32(n.cutsPer[1])
		}
		if got := [4]uint32(rec[:4]); got != want {
			t.Fatalf("node %d: header %v, reference %v", i, got, want)
		}
	}
}

// TestBuildMatchesReference holds Build to the reference over every
// ClassBench class, the leaf-size and depth limits that end recursion
// differently, and a fully overlapping set (the guard leaf).
func TestBuildMatchesReference(t *testing.T) {
	shallow := DefaultConfig()
	shallow.MaxDepth = 2
	small, big := DefaultConfig(), DefaultConfig()
	small.Binth, big.Binth = 4, 64
	var overlap []fivetuple.Rule
	for i := range 40 {
		overlap = append(overlap, fivetuple.Wildcard(i, fivetuple.ActionDrop))
	}
	cases := []struct {
		name  string
		rules []fivetuple.Rule
		cfg   Config
	}{
		{"overlap", overlap, DefaultConfig()},
		{"acl-5k", classbench.Generate(classbench.StandardConfig(classbench.ACL, classbench.Size5K)).Rules(), DefaultConfig()},
	}
	for _, class := range []classbench.Class{classbench.ACL, classbench.FW, classbench.IPC} {
		rules := classbench.Generate(classbench.StandardConfig(class, classbench.Size1K)).Rules()
		for name, cfg := range map[string]Config{"default": DefaultConfig(), "binth4": small, "binth64": big, "depth2": shallow} {
			cases = append(cases, struct {
				name  string
				rules []fivetuple.Rule
				cfg   Config
			}{fmt.Sprintf("%s/%s", class, name), rules, cfg})
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := BuildRules(slices.Clone(tc.rules), tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			requireReferenceTree(t, c, tc.rules, tc.cfg)
		})
	}
}
