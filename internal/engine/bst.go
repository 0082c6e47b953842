package engine

import (
	"sdnpc/internal/algo/bst"
	"sdnpc/internal/label"
)

func init() {
	MustRegister(Definition{
		Name:         "bst",
		Description:  "binary search tree over elementary intervals: smallest node storage, serial lookup, frees MBT blocks for extra rules",
		Factory:      newBSTEngine,
		IPCapable:    true,
		SharesLevel2: true,
	})
}

// bstEngine adapts the Binary Search Tree to the FieldEngine interface. Its
// interval nodes fit in the MBT level-2 block of Fig. 5 ("Data 2"), which is
// why selecting it frees the remaining MBT blocks for rule storage; node
// storage beyond that block's capacity is overflow, visible in MemoryReport
// as used bits above provisioned bits.
type bstEngine struct {
	e *bst.Engine
}

func newBSTEngine(spec Spec) (FieldEngine, error) {
	cfg := bst.SegmentConfig()
	if spec.KeyBits > 0 {
		cfg.KeyBits = spec.KeyBits
	}
	if spec.LabelBits > 0 {
		cfg.LabelEntryBits = spec.LabelBits
	}
	e, err := bst.New(cfg)
	if err != nil {
		return nil, err
	}
	return &bstEngine{e: e}, nil
}

func (a *bstEngine) Insert(v Value, lbl label.Label, priority int) (int, error) {
	if v.Kind != KindPrefix {
		return 0, unsupportedKind("bst", v.Kind)
	}
	return a.e.Insert(v.Value, v.Bits, lbl, priority)
}

func (a *bstEngine) Remove(v Value, lbl label.Label) (int, error) {
	if v.Kind != KindPrefix {
		return 0, unsupportedKind("bst", v.Kind)
	}
	return a.e.Remove(v.Value, v.Bits, lbl)
}

func (a *bstEngine) Reprioritise(v Value, lbl label.Label, priority int) (int, error) {
	return reprioritise(a, v, lbl, priority)
}

func (a *bstEngine) LookupInto(key uint32, out *label.List) int { return a.e.LookupInto(key, out) }

func (a *bstEngine) Cost() CostModel {
	worst := a.e.WorstCaseAccessesFor()
	return CostModel{
		// The BST iterates over one memory port and cannot accept a new
		// packet until the previous search completes (§V.B / Table VI).
		LookupCycles:       worst * CyclesPerBSTStep,
		InitiationInterval: worst * CyclesPerBSTStep,
		WorstCaseAccesses:  worst,
	}
}

func (a *bstEngine) Footprint() Footprint {
	return Footprint{NodeBits: a.e.MemoryBits(), LabelListBits: a.e.LabelListBits()}
}

// Clone implements Cloner.
func (a *bstEngine) Clone() FieldEngine { return &bstEngine{e: a.e.Clone()} }
