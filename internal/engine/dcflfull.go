package engine

import (
	"fmt"

	"sdnpc/internal/algo/dcfl"
	"sdnpc/internal/fivetuple"
)

func init() {
	MustRegister(Definition{
		Name:          "dcfl",
		Description:   "Distributed Crossproducting of Field Labels: parallel field searches + aggregation-network probes (Table I)",
		PacketFactory: newDCFLEngine,
		Incremental:   true,
		// The aggregation network enumerates every surviving combination,
		// so multi-match comes for free; the range-based field searches
		// cannot represent IPv6/VLAN/flag or partially masked dimensions.
		Dims: fivetuple.DimMultiAction,
	})
}

// dcflEngine adapts the DCFL classifier (Taylor & Turner, INFOCOM 2005) to
// the PacketEngine tier: independent per-field searches feed an aggregation
// network that probes only the label combinations actually present in the
// rule set. Lookup cost tracks the matching label sets (small), memory cost
// the combination tables (large) — the Table I decomposition trade-off.
//
// The engine is incremental: DCFL decomposes the rule set per field, so a
// delta update labels five field values and edits one combination set per
// aggregation node (see dcfl delta.go). Deletes leave stale entries behind;
// the tracked garbage surfaces through UpdateCost.Degradation so the
// classifier's policy layer can amortise it with a rebuild.
type dcflEngine struct {
	c *dcfl.Classifier
	// owned marks the tables as private to this handle. Clone clears it;
	// the first delta op on an un-owned handle takes a copy-on-write clone
	// of the tables first, so a delta is never observable through the
	// cloned-from handle.
	owned bool
}

func newDCFLEngine(Spec) (PacketEngine, error) { return &dcflEngine{}, nil }

func (e *dcflEngine) Install(rules []fivetuple.Rule) error {
	if len(rules) == 0 {
		e.c, e.owned = nil, false
		return nil
	}
	c, err := dcfl.BuildRules(rules)
	if err != nil {
		return err
	}
	e.c = c
	e.owned = true
	return nil
}

// own makes the underlying tables private to this handle, cloning them on
// the first delta after a Clone.
func (e *dcflEngine) own() {
	if !e.owned {
		e.c = e.c.Clone()
		e.owned = true
	}
}

func (e *dcflEngine) InsertRule(r fivetuple.Rule) (UpdateReport, error) {
	if e.c == nil {
		return UpdateReport{}, fmt.Errorf("dcfl: no built tables to delta-update (install first)")
	}
	e.own()
	return UpdateReport{}, e.c.Insert(r)
}

func (e *dcflEngine) DeleteRule(r fivetuple.Rule) (UpdateReport, error) {
	if e.c == nil {
		return UpdateReport{}, fmt.Errorf("dcfl: no built tables to delta-update (install first)")
	}
	e.own()
	return UpdateReport{}, e.c.Delete(r)
}

func (e *dcflEngine) UpdateCost() UpdateCost {
	if e.c == nil {
		return UpdateCost{}
	}
	ds := e.c.DeltaStats()
	return UpdateCost{Deltas: ds.Deltas, Writes: ds.Writes, DeadIDs: ds.DeadIDs, Degradation: e.c.Degradation()}
}

func (e *dcflEngine) LookupPacket(h fivetuple.Header) (int, bool, int) {
	if e.c == nil {
		return 0, false, 0
	}
	return e.c.Classify(h)
}

func (e *dcflEngine) Verdict(id int) fivetuple.Verdict { return e.c.Verdict(id) }

// LookupPacketAll enumerates the matching rules in priority order: ClassifyAll
// sorts the surviving final sets' rules and stops after the first
// terminating match.
func (e *dcflEngine) LookupPacketAll(h fivetuple.Header, dst []int) ([]int, int) {
	if e.c == nil {
		return dst, 0
	}
	return e.c.ClassifyAll(h, dst)
}

// dcflProvisionedAccesses is the provisioned per-packet access budget of the
// aggregation network: the two 8-node prefix walks, two 8-step range-tree
// descents and the protocol table (25 field-search accesses), plus 4 probes
// per aggregation node (the DCFL paper's observation that the matching label
// sets stay small), 16 probes across the four nodes.
const dcflProvisionedAccesses = 25 + 16

func (e *dcflEngine) Cost() CostModel {
	// The aggregation network is distributed: every node is an independent
	// memory, so packets pipeline through it with initiation interval 1.
	return CostModel{
		LookupCycles:       dcflProvisionedAccesses,
		InitiationInterval: 1,
		WorstCaseAccesses:  dcflProvisionedAccesses,
	}
}

func (e *dcflEngine) Footprint() Footprint {
	if e.c == nil {
		return Footprint{}
	}
	return Footprint{NodeBits: e.c.MemoryBits()}
}

// Clone shares the built tables; a later Install on either handle replaces
// that handle's pointer only, and a later delta op copy-on-writes the
// tables (own), so neither handle can observe the other's mutations.
func (e *dcflEngine) Clone() PacketEngine {
	cp := *e
	cp.owned = false
	return &cp
}
