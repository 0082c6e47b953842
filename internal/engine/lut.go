package engine

import (
	"sdnpc/internal/algo/lut"
	"sdnpc/internal/label"
)

func init() {
	MustRegister(Definition{
		Name:        "lut",
		Description: "direct-indexed protocol look-up table (§IV.C), exact-first label order",
		Factory:     newLUTEngine,
	})
}

// lutEngine adapts the protocol look-up table to the FieldEngine interface.
// The table orders its (at most two) labels exact-first (§IV.C.1), not by
// rule priority, so Reprioritise is a structural no-op.
type lutEngine struct {
	t *lut.Table
}

func newLUTEngine(spec Spec) (FieldEngine, error) {
	labelBits := spec.LabelBits
	if labelBits == 0 {
		labelBits = 2
	}
	t, err := lut.New(labelBits)
	if err != nil {
		return nil, err
	}
	return &lutEngine{t: t}, nil
}

func (a *lutEngine) Insert(v Value, lbl label.Label, priority int) (int, error) {
	switch v.Kind {
	case KindExact:
		return a.t.InsertExact(uint8(v.Value), lbl, priority), nil
	case KindWildcard:
		return a.t.InsertWildcard(lbl, priority), nil
	default:
		return 0, unsupportedKind("lut", v.Kind)
	}
}

func (a *lutEngine) Remove(v Value, lbl label.Label) (int, error) {
	switch v.Kind {
	case KindExact:
		return a.t.RemoveExact(uint8(v.Value))
	case KindWildcard:
		return a.t.RemoveWildcard()
	default:
		return 0, unsupportedKind("lut", v.Kind)
	}
}

func (a *lutEngine) Reprioritise(v Value, lbl label.Label, priority int) (int, error) {
	// Protocol labels are ordered exact-first regardless of rule priority.
	return 0, nil
}

func (a *lutEngine) LookupInto(key uint32, out *label.List) int {
	return a.t.LookupInto(uint8(key), out)
}

func (a *lutEngine) Cost() CostModel {
	return CostModel{
		LookupCycles:       CyclesDirectLookup,
		InitiationInterval: 1,
		WorstCaseAccesses:  1,
	}
}

func (a *lutEngine) Footprint() Footprint {
	return Footprint{NodeBits: a.t.MemoryBits()}
}

// Clone implements Cloner by copying the table slots.
func (a *lutEngine) Clone() FieldEngine { return &lutEngine{t: a.t.Clone()} }
