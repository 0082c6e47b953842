package engine

import (
	"sdnpc/internal/algo/dcfl"
	"sdnpc/internal/fivetuple"
)

// DCFL (Taylor & Turner, INFOCOM 2005) feeds independent per-field searches
// into an aggregation network that probes only the label combinations the
// rule set has: lookup cost tracks the matching label sets (small), memory
// the combination tables (large) — the Table I decomposition trade-off. A
// delta labels five field values and edits one combination set per node;
// deletes leave stale entries behind, the drift its Degradation reports.
func init() {
	MustRegister(Definition{
		Name:          "dcfl",
		Description:   "Distributed Crossproducting of Field Labels: parallel field searches + aggregation-network probes (Table I)",
		PacketFactory: deltaFactory(dcfl.BuildRules, dcflCost),
		// The aggregation network enumerates every surviving combination,
		// so multi-match comes for free; the range-based field searches
		// cannot represent IPv6/VLAN/flag or partially masked dimensions.
		Dims: fivetuple.DimMultiAction,
	})
}

// dcflProvisionedAccesses is the provisioned per-packet access budget of the
// aggregation network: the two 8-node prefix walks, two 8-step range-tree
// descents and the protocol table (25 field-search accesses), plus 4 probes
// per aggregation node (the DCFL paper's observation that the matching label
// sets stay small), 16 probes across the four nodes.
const dcflProvisionedAccesses = 25 + 16

// dcflCost is the provisioned budget, whatever is installed. Every
// aggregation node is an independent memory, so packets pipeline through
// the network with initiation interval 1.
func dcflCost(*dcfl.Classifier) CostModel {
	return CostModel{LookupCycles: dcflProvisionedAccesses, InitiationInterval: 1, WorstCaseAccesses: dcflProvisionedAccesses}
}
