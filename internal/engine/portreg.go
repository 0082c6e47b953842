package engine

import (
	"sdnpc/internal/algo/portreg"
	"sdnpc/internal/fivetuple"
	"sdnpc/internal/label"
)

func init() {
	MustRegister(Definition{
		Name:        "portreg",
		Description: "parallel port-range register bank (§IV.C), specificity-ordered labels",
		Factory:     newPortregEngine,
	})
}

// portregEngine adapts the port register bank to the FieldEngine interface.
// The bank orders its label lists by range specificity (Table IV), not by
// rule priority, so Reprioritise is a structural no-op.
type portregEngine struct {
	b *portreg.Bank
}

func newPortregEngine(spec Spec) (FieldEngine, error) {
	registers := spec.Registers
	if registers == 0 {
		registers = 128
	}
	labelBits := spec.LabelBits
	if labelBits == 0 {
		labelBits = 7
	}
	b, err := portreg.New(registers, labelBits)
	if err != nil {
		return nil, err
	}
	return &portregEngine{b: b}, nil
}

func (a *portregEngine) rangeOf(v Value) (fivetuple.PortRange, error) {
	switch v.Kind {
	case KindRange:
		return fivetuple.PortRange{Lo: uint16(v.Lo), Hi: uint16(v.Hi)}, nil
	case KindExact:
		return fivetuple.PortRange{Lo: uint16(v.Value), Hi: uint16(v.Value)}, nil
	case KindWildcard:
		return fivetuple.WildcardPortRange(), nil
	default:
		return fivetuple.PortRange{}, unsupportedKind("portreg", v.Kind)
	}
}

func (a *portregEngine) Insert(v Value, lbl label.Label, priority int) (int, error) {
	rng, err := a.rangeOf(v)
	if err != nil {
		return 0, err
	}
	return a.b.Insert(rng, lbl, priority)
}

func (a *portregEngine) Remove(v Value, lbl label.Label) (int, error) {
	rng, err := a.rangeOf(v)
	if err != nil {
		return 0, err
	}
	return a.b.Remove(rng)
}

func (a *portregEngine) Reprioritise(v Value, lbl label.Label, priority int) (int, error) {
	// Port labels are ordered by range specificity, which deletion cannot
	// change; no register needs rewriting.
	return 0, nil
}

func (a *portregEngine) LookupInto(key uint32, out *label.List) int {
	return a.b.LookupInto(uint16(key), out)
}

func (a *portregEngine) Cost() CostModel {
	return CostModel{
		LookupCycles:       CyclesPortLookup,
		InitiationInterval: 1,
		WorstCaseAccesses:  1,
	}
}

func (a *portregEngine) Footprint() Footprint {
	return Footprint{NodeBits: a.b.MemoryBits()}
}

// Clone implements Cloner by copying the register file.
func (a *portregEngine) Clone() FieldEngine { return &portregEngine{b: a.b.Clone()} }
