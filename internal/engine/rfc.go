package engine

import (
	"sdnpc/internal/algo/rfc"
	"sdnpc/internal/label"
)

func init() {
	MustRegister(Definition{
		Name:        "rfc",
		Description: "single-field RFC equivalence table: one-access lookup, largest node storage (Table I trade-off)",
		Factory:     newRFCEngine,
		IPCapable:   true,
	})
}

// rfcEngine adapts the single-field RFC phase-0 reduction to the FieldEngine
// interface: a direct-indexed value→equivalence-class table rebuilt in
// software on update, giving the fastest possible lookup (one access) at the
// cost of the largest node storage.
type rfcEngine struct {
	t *rfc.SegmentTable
}

func newRFCEngine(spec Spec) (FieldEngine, error) {
	keyBits := spec.KeyBits
	if keyBits == 0 {
		keyBits = 16
	}
	labelBits := spec.LabelBits
	if labelBits == 0 {
		labelBits = 13
	}
	t, err := rfc.NewSegmentTable(keyBits, labelBits)
	if err != nil {
		return nil, err
	}
	return &rfcEngine{t: t}, nil
}

func (a *rfcEngine) Insert(v Value, lbl label.Label, priority int) (int, error) {
	if v.Kind != KindPrefix {
		return 0, unsupportedKind("rfc", v.Kind)
	}
	return a.t.Insert(v.Value, v.Bits, lbl, priority)
}

func (a *rfcEngine) Remove(v Value, lbl label.Label) (int, error) {
	if v.Kind != KindPrefix {
		return 0, unsupportedKind("rfc", v.Kind)
	}
	return a.t.Remove(v.Value, v.Bits, lbl)
}

func (a *rfcEngine) Reprioritise(v Value, lbl label.Label, priority int) (int, error) {
	return reprioritise(a, v, lbl, priority)
}

func (a *rfcEngine) LookupInto(key uint32, out *label.List) int { return a.t.LookupInto(key, out) }

func (a *rfcEngine) Cost() CostModel {
	return CostModel{
		LookupCycles:       CyclesDirectLookup,
		InitiationInterval: 1,
		WorstCaseAccesses:  1,
	}
}

func (a *rfcEngine) Footprint() Footprint {
	return Footprint{NodeBits: a.t.MemoryBits(), LabelListBits: a.t.LabelListBits()}
}

// Clone implements Cloner by copying the prepared segment table.
func (a *rfcEngine) Clone() FieldEngine { return &rfcEngine{t: a.t.Clone()} }

// Prepare implements Preparer: it forces the table's deferred equivalence-
// class rebuild so that a published snapshot never rebuilds inside a lookup.
func (a *rfcEngine) Prepare() { a.t.Prepare() }
