package engine

import (
	"sdnpc/internal/algo/hypercuts"
	"sdnpc/internal/fivetuple"
)

// HyperCuts (Singh et al., SIGCOMM 2003) walks one tree path and scans the
// leaf linearly: the slowest lookups of Table I but by far the smallest
// memory. A delta edits only the leaf lists its rule overlaps; inserts can
// overfill leaves, the drift its Degradation reports.
func init() {
	MustRegister(Definition{
		Name:        "hypercuts",
		Description: "HyperCuts decision tree: multi-dimensional cuts + linear leaf scan, smallest memory (Table I)",
		PacketFactory: deltaFactory(func(rules []fivetuple.Rule) (*hypercuts.Classifier, error) {
			return hypercuts.BuildRules(rules, hypercuts.DefaultConfig())
		}, hypercutsCost),
		// One leaf holds every rule overlapping the lookup point, so a full
		// leaf scan enumerates all matches; the 5-dimension cut geometry
		// cannot represent IPv6/VLAN/flag or partially masked dimensions.
		Dims: fivetuple.DimMultiAction,
	})
}

// hypercutsCost is the worst case: the deepest tree path, the leaf header
// read and a full scan of the fullest leaf (binth after a clean build; delta
// inserts can overfill a leaf past it). The walk is iterative over one
// memory, so a new packet waits until the current one leaves.
func hypercutsCost(c *hypercuts.Classifier) CostModel {
	if c == nil {
		return CostModel{LookupCycles: 1, InitiationInterval: 1, WorstCaseAccesses: 1}
	}
	accesses := c.Depth() + 1 + 1 + max(hypercuts.DefaultConfig().Binth, c.MaxLeafOccupancy())
	return CostModel{LookupCycles: accesses, InitiationInterval: accesses, WorstCaseAccesses: accesses}
}
