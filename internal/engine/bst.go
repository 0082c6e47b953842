package engine

import (
	"sdnpc/internal/algo/bst"
	"sdnpc/internal/hw/memory"
	"sdnpc/internal/label"
)

func init() {
	MustRegister(Definition{
		Name:         "bst",
		Description:  "binary search tree over elementary intervals: smallest node storage, serial lookup, frees MBT blocks for extra rules",
		Factory:      newBSTEngine,
		IPCapable:    true,
		SharesLevel2: true,
		Legacy:       memory.SelectBST,
	})
}

// bstEngine adapts the Binary Search Tree to the FieldEngine interface. Its
// interval nodes live in the shared level-2 block of Fig. 5 ("Data 2"),
// which is why selecting it frees the remaining MBT blocks for rule storage.
type bstEngine struct {
	e *bst.Engine
	// shared is the level-2 block the interval nodes are resident in (nil
	// when modelling footprint only); node storage beyond its capacity is
	// overflow, visible in MemoryReport as used bits above provisioned bits.
	shared *memory.SharedBlock
}

func newBSTEngine(spec Spec) (FieldEngine, error) {
	if _, err := viewSharedL2(spec, "bst"); err != nil {
		return nil, err
	}
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
	return &bstEngine{e: e, shared: spec.SharedL2}, nil
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

func (a *bstEngine) Lookup(key uint32) (*label.List, int) { return a.e.Lookup(key) }

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

// Clone implements Cloner. The shared-block handle is carried over as-is:
// it only tags which engine's data the block holds, and snapshots built for
// a different engine selection get fresh blocks rather than re-owning this
// one.
func (a *bstEngine) Clone() FieldEngine { return &bstEngine{e: a.e.Clone(), shared: a.shared} }
