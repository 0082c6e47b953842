package engine

import (
	"fmt"

	"sdnpc/internal/algo/hypercuts"
	"sdnpc/internal/fivetuple"
)

func init() {
	MustRegister(Definition{
		Name:          "hypercuts",
		Description:   "HyperCuts decision tree: multi-dimensional cuts + linear leaf scan, smallest memory (Table I)",
		PacketFactory: newHyperCutsEngine,
		Incremental:   true,
		// One leaf holds every rule overlapping the lookup point, so a full
		// leaf scan enumerates all matches; the 5-dimension cut geometry
		// cannot represent IPv6/VLAN/flag or partially masked dimensions.
		Dims: fivetuple.DimMultiAction,
	})
}

// hypercutsEngine adapts the HyperCuts decision tree (Singh et al., SIGCOMM
// 2003) to the PacketEngine tier. Lookup walks one tree path and scans the
// leaf linearly — the slowest lookups of Table I but by far the smallest
// memory, which is the corner of the trade-off space this tier covers.
//
// The engine is incremental: the cut structure partitions the header space
// independently of the rule list, so a delta update only edits the leaf rule
// lists (see hypercuts delta.go). Inserts can overfill leaves; the tracked
// overflow surfaces through UpdateCost.Degradation so the classifier's
// policy layer can amortise it with a rebuild.
type hypercutsEngine struct {
	cfg hypercuts.Config
	c   *hypercuts.Classifier
	// owned marks the structure as private to this handle. Clone clears it;
	// the first delta op on an un-owned handle takes a copy-on-write clone
	// of the tree first, so a delta is never observable through the
	// cloned-from handle.
	owned bool
}

func newHyperCutsEngine(Spec) (PacketEngine, error) {
	return &hypercutsEngine{cfg: hypercuts.DefaultConfig()}, nil
}

func (e *hypercutsEngine) Install(rules []fivetuple.Rule) error {
	if len(rules) == 0 {
		e.c, e.owned = nil, false
		return nil
	}
	c, err := hypercuts.BuildRules(rules, e.cfg)
	if err != nil {
		return err
	}
	e.c = c
	e.owned = true
	return nil
}

// own makes the underlying tree private to this handle, cloning it on the
// first delta after a Clone.
func (e *hypercutsEngine) own() {
	if !e.owned {
		e.c = e.c.Clone()
		e.owned = true
	}
}

func (e *hypercutsEngine) InsertRule(r fivetuple.Rule) (UpdateReport, error) {
	if e.c == nil {
		return UpdateReport{}, fmt.Errorf("hypercuts: no built tree to delta-update (install first)")
	}
	e.own()
	return UpdateReport{}, e.c.Insert(r)
}

func (e *hypercutsEngine) DeleteRule(r fivetuple.Rule) (UpdateReport, error) {
	if e.c == nil {
		return UpdateReport{}, fmt.Errorf("hypercuts: no built tree to delta-update (install first)")
	}
	e.own()
	return UpdateReport{}, e.c.Delete(r)
}

func (e *hypercutsEngine) UpdateCost() UpdateCost {
	if e.c == nil {
		return UpdateCost{}
	}
	ds := e.c.DeltaStats()
	return UpdateCost{Deltas: ds.Deltas, Writes: ds.Writes, DeadIDs: ds.DeadIDs, Degradation: e.c.Degradation()}
}

func (e *hypercutsEngine) LookupPacket(h fivetuple.Header) (int, bool, int) {
	if e.c == nil {
		return 0, false, 0
	}
	return e.c.Classify(h)
}

func (e *hypercutsEngine) Verdict(id int) fivetuple.Verdict { return e.c.Verdict(id) }

// LookupPacketAll enumerates the matching rules in priority order: leaf lists
// stay best-first through delta churn, and ClassifyAll stops after the first
// terminating match.
func (e *hypercutsEngine) LookupPacketAll(h fivetuple.Header, dst []int) ([]int, int) {
	if e.c == nil {
		return dst, 0
	}
	return e.c.ClassifyAll(h, dst)
}

func (e *hypercutsEngine) Cost() CostModel {
	if e.c == nil {
		return CostModel{LookupCycles: 1, InitiationInterval: 1, WorstCaseAccesses: 1}
	}
	// Worst case: the deepest tree path, the leaf header read and a full
	// scan of the fullest leaf (binth after a clean build; delta inserts can
	// overfill a leaf past it). The walk is iterative over one memory, so
	// the engine cannot accept a new packet until the current one leaves.
	worstLeaf := e.cfg.Binth
	if occ := e.c.MaxLeafOccupancy(); occ > worstLeaf {
		worstLeaf = occ
	}
	accesses := e.c.Depth() + 1 + 1 + worstLeaf
	return CostModel{
		LookupCycles:       accesses,
		InitiationInterval: accesses,
		WorstCaseAccesses:  accesses,
	}
}

func (e *hypercutsEngine) Footprint() Footprint {
	if e.c == nil {
		return Footprint{}
	}
	return Footprint{NodeBits: e.c.MemoryBits()}
}

// Clone shares the built tree; a later Install on either handle replaces
// that handle's pointer only, and a later delta op copy-on-writes the tree
// (own), so neither handle can observe the other's mutations.
func (e *hypercutsEngine) Clone() PacketEngine {
	cp := *e
	cp.owned = false
	return &cp
}
