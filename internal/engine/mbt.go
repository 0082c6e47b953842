package engine

import (
	"sdnpc/internal/algo/mbt"
	"sdnpc/internal/label"
)

func init() {
	MustRegister(Definition{
		Name:        "mbt",
		Description: "multi-bit trie: fastest lookup, expanded node storage (paper default)",
		Factory:     newMBTEngine,
		IPCapable:   true,
	})
}

// mbtEngine adapts the Multi-Bit Trie to the FieldEngine interface.
type mbtEngine struct {
	e *mbt.Engine
}

func newMBTEngine(spec Spec) (FieldEngine, error) {
	cfg := mbt.SegmentConfig()
	if spec.KeyBits > 0 {
		cfg.KeyBits = spec.KeyBits
	}
	if cfg.KeyBits != 16 {
		cfg = mbt.UniformConfig(cfg.KeyBits, (cfg.KeyBits+5)/6)
	}
	if spec.LabelBits > 0 {
		cfg.LabelEntryBits = spec.LabelBits
	}
	e, err := mbt.New(cfg)
	if err != nil {
		return nil, err
	}
	return &mbtEngine{e: e}, nil
}

func (a *mbtEngine) Insert(v Value, lbl label.Label, priority int) (int, error) {
	if v.Kind != KindPrefix {
		return 0, unsupportedKind("mbt", v.Kind)
	}
	return a.e.Insert(v.Value, v.Bits, lbl, priority)
}

func (a *mbtEngine) Remove(v Value, lbl label.Label) (int, error) {
	if v.Kind != KindPrefix {
		return 0, unsupportedKind("mbt", v.Kind)
	}
	return a.e.Remove(v.Value, v.Bits, lbl)
}

func (a *mbtEngine) Reprioritise(v Value, lbl label.Label, priority int) (int, error) {
	return reprioritise(a, v, lbl, priority)
}

func (a *mbtEngine) LookupInto(key uint32, out *label.List) int { return a.e.LookupInto(key, out) }

func (a *mbtEngine) Cost() CostModel {
	levels := a.e.Config().Levels()
	return CostModel{
		LookupCycles:       levels * CyclesPerTrieLevel,
		InitiationInterval: 1,
		WorstCaseAccesses:  a.e.WorstCaseAccesses(),
	}
}

func (a *mbtEngine) Footprint() Footprint {
	return Footprint{NodeBits: a.e.MemoryBits(), LabelListBits: a.e.LabelListBits()}
}

// Clone implements Cloner in O(1): the tries share their nodes until written.
func (a *mbtEngine) Clone() FieldEngine { return &mbtEngine{e: a.e.Clone()} }
