package engine

import (
	"errors"

	"sdnpc/internal/fivetuple"
)

// deltaStructure is a delta-updated packet structure, the HyperCuts tree or
// the DCFL tables; its records and delta debt are an embedded fivetuple.Records.
type deltaStructure interface {
	Insert(r fivetuple.Rule) error
	Delete(r fivetuple.Rule) error
	Classify(h fivetuple.Header) (id int, matched bool, accesses int)
	ClassifyAll(h fivetuple.Header, dst []int) ([]int, int)
	Verdict(id int) fivetuple.Verdict
	DeltaStats() fivetuple.DeltaStats
	Degradation() float64
	MemoryBits() int
}

// deltaKind is what sets one structure's engine apart: its build, its typed
// Clone and its cost model, which gets nil before the first build.
type deltaKind struct {
	build func(rules []fivetuple.Rule) (deltaStructure, error)
	clone func(s deltaStructure) deltaStructure
	cost  func(s deltaStructure) CostModel
}

// deltaFactory returns the factory of the engine over structure S. The
// engine is not generic: a lookup costs one interface call into S.
func deltaFactory[S interface {
	deltaStructure
	Clone() S
}](build func(rules []fivetuple.Rule) (S, error), cost func(s S) CostModel) PacketFactory {
	kind := &deltaKind{
		build: func(rules []fivetuple.Rule) (deltaStructure, error) { return build(rules) },
		clone: func(s deltaStructure) deltaStructure { return s.(S).Clone() },
		cost:  func(s deltaStructure) CostModel { c, _ := s.(S); return cost(c) },
	}
	return func(Spec) (PacketEngine, error) { return &deltaEngine{kind: kind}, nil }
}

// deltaEngine adapts a delta-updated structure to the incremental packet
// tier; the update policy reads the deltas' drift as UpdateCost.Degradation.
type deltaEngine struct {
	kind *deltaKind
	s    deltaStructure // nil before the first Install and after an empty one
}

func (e *deltaEngine) Install(rules []fivetuple.Rule) (err error) {
	var s deltaStructure
	if len(rules) > 0 {
		if s, err = e.kind.build(rules); err != nil {
			return err
		}
	}
	e.s = s
	return nil
}

func (e *deltaEngine) InsertRule(r fivetuple.Rule) (UpdateReport, error) {
	return e.delta(deltaStructure.Insert, r)
}

func (e *deltaEngine) DeleteRule(r fivetuple.Rule) (UpdateReport, error) {
	return e.delta(deltaStructure.Delete, r)
}

// delta applies op to the structure, and declines when none is built.
func (e *deltaEngine) delta(op func(deltaStructure, fivetuple.Rule) error, r fivetuple.Rule) (UpdateReport, error) {
	if e.s == nil {
		return UpdateReport{}, errors.New("engine: no built structure to delta-update (install first)")
	}
	return UpdateReport{}, op(e.s, r)
}

func (e *deltaEngine) UpdateCost() UpdateCost {
	if e.s == nil {
		return UpdateCost{}
	}
	ds := e.s.DeltaStats()
	return UpdateCost{Deltas: ds.Deltas, Writes: ds.Writes, DeadIDs: ds.DeadIDs, Degradation: e.s.Degradation()}
}

func (e *deltaEngine) LookupPacket(h fivetuple.Header) (int, bool, int) {
	if e.s == nil {
		return 0, false, 0
	}
	return e.s.Classify(h)
}

func (e *deltaEngine) Verdict(id int) fivetuple.Verdict { return e.s.Verdict(id) }

// LookupPacketAll answers best-first, cut after the first terminating match.
func (e *deltaEngine) LookupPacketAll(h fivetuple.Header, dst []int) ([]int, int) {
	if e.s == nil {
		return dst, 0
	}
	return e.s.ClassifyAll(h, dst)
}

func (e *deltaEngine) Cost() CostModel { return e.kind.cost(e.s) }

func (e *deltaEngine) Footprint() Footprint {
	if e.s == nil {
		return Footprint{}
	}
	return Footprint{NodeBits: e.s.MemoryBits()}
}

// Clone clones the structure, which shares every chunk and takes both sides'
// ownership away: neither handle's deltas are observable through the other.
func (e *deltaEngine) Clone() PacketEngine {
	cp := *e
	if e.s != nil {
		cp.s = e.kind.clone(e.s)
	}
	return &cp
}
