package engine

import (
	"fmt"

	"sdnpc/internal/algo/segtrie"
	"sdnpc/internal/fivetuple"
	"sdnpc/internal/label"
)

// segtrieLevels is the trie depth used when the segment trie serves an IP
// segment (the Table I "Option 1" port-trie geometry).
const segtrieLevels = 4

func init() {
	MustRegister(Definition{
		Name:        "segtrie",
		Description: "segment trie: range-to-prefix expansion over a fixed-stride trie (Table I options)",
		Factory:     newSegtrieEngine,
		IPCapable:   true,
	})
}

// segtrieEngine adapts the segment trie to the FieldEngine interface. The
// underlying engine stores inclusive 16-bit ranges; prefixes are converted
// to their (always aligned) range, so the adapter serves both the IP-segment
// and the port dimensions.
type segtrieEngine struct {
	e *segtrie.Engine
}

func newSegtrieEngine(spec Spec) (FieldEngine, error) {
	if spec.KeyBits != 0 && spec.KeyBits != segtrie.PortBits {
		return nil, fmt.Errorf("segtrie engine serves %d-bit keys, not %d", segtrie.PortBits, spec.KeyBits)
	}
	e, err := segtrie.New(segtrieLevels)
	if err != nil {
		return nil, err
	}
	return &segtrieEngine{e: e}, nil
}

// rangeOf converts a match condition into the inclusive 16-bit range the
// segment trie stores.
func (a *segtrieEngine) rangeOf(v Value) (fivetuple.PortRange, error) {
	switch v.Kind {
	case KindPrefix:
		if int(v.Bits) > segtrie.PortBits {
			return fivetuple.PortRange{}, fmt.Errorf("segtrie: prefix length %d exceeds key width %d", v.Bits, segtrie.PortBits)
		}
		span := uint32(1) << (segtrie.PortBits - int(v.Bits))
		lo := v.Value &^ (span - 1)
		return fivetuple.PortRange{Lo: uint16(lo), Hi: uint16(lo + span - 1)}, nil
	case KindRange:
		return fivetuple.PortRange{Lo: uint16(v.Lo), Hi: uint16(v.Hi)}, nil
	case KindExact:
		return fivetuple.PortRange{Lo: uint16(v.Value), Hi: uint16(v.Value)}, nil
	default:
		return fivetuple.PortRange{}, unsupportedKind("segtrie", v.Kind)
	}
}

func (a *segtrieEngine) Insert(v Value, lbl label.Label, priority int) (int, error) {
	rng, err := a.rangeOf(v)
	if err != nil {
		return 0, err
	}
	return a.e.Insert(rng, lbl, priority)
}

func (a *segtrieEngine) Remove(v Value, lbl label.Label) (int, error) {
	rng, err := a.rangeOf(v)
	if err != nil {
		return 0, err
	}
	return a.e.Remove(rng, lbl)
}

func (a *segtrieEngine) Reprioritise(v Value, lbl label.Label, priority int) (int, error) {
	return reprioritise(a, v, lbl, priority)
}

func (a *segtrieEngine) LookupInto(key uint32, out *label.List) int {
	return a.e.LookupInto(uint16(key), out)
}

func (a *segtrieEngine) Cost() CostModel {
	return CostModel{
		LookupCycles:       a.e.Levels() * CyclesPerTrieLevel,
		InitiationInterval: 1,
		WorstCaseAccesses:  a.e.WorstCaseAccesses(),
	}
}

func (a *segtrieEngine) Footprint() Footprint {
	return Footprint{NodeBits: a.e.MemoryBits(), LabelListBits: a.e.LabelListBits()}
}

// Clone implements Cloner: the range memo is copied, the trie shared until
// written.
func (a *segtrieEngine) Clone() FieldEngine { return &segtrieEngine{e: a.e.Clone()} }
