package engine

import (
	"errors"

	"sdnpc/internal/fivetuple"
)

// ErrRefused marks a delta op's failure as the rule's own: the structure
// cannot hold this rule, the op fails, and a rebuild would hold it no
// better. A delta op failing without it declines the delta instead — the
// structure will not take it (no built structure, a bound on its dead ids)
// — and the classifier rebuilds the structure over its rule table.
var ErrRefused = errors.New("engine: rule refused")

// UpdateReport describes the cost of one rule insertion or deletion, as the
// paper's field engine counts it (Fig. 4). A whole-packet structure reports
// nothing.
type UpdateReport struct {
	// NewLabels is the number of dimensions in which the rule introduced a
	// previously unseen field value (Fig. 4: "new label creation"). A rule
	// whose field values are all already labelled costs no engine updates at
	// all — the benefit of the label counters.
	NewLabels int
	// ReleasedLabels is the number of labels whose counter reached zero on
	// deletion.
	ReleasedLabels int
	// EngineWrites is the number of algorithm-block memory writes performed
	// by the engines.
	EngineWrites int
	// RuleFilterProbes is the number of Rule Filter slots touched.
	RuleFilterProbes int
}

// UpdateCost is the accumulated delta debt of an incremental whole-packet
// engine since its last full Install: how much work the deltas performed and
// how far they have drifted the structure from what a fresh build would
// produce. The classifier's update policy reads it to decide when the debt
// justifies an amortising rebuild.
type UpdateCost struct {
	// Deltas is the number of delta ops absorbed since the last Install.
	Deltas int
	// Writes is the number of structure memory writes those ops performed.
	Writes int
	// DeadIDs is the number of ids deletes retired since the last Install:
	// rules the structure's store still holds but no lookup answers. It
	// stays at most the live rule count plus 64.
	DeadIDs int
	// Degradation, in [0,1], estimates the structure's drift from a fresh
	// build: 0 immediately after Install, growing as deltas leave imperfection
	// behind (overfull HyperCuts leaves, stale DCFL combination entries).
	// Verdicts stay exact at any degradation — the signal measures lookup
	// cost and memory drift only.
	Degradation float64
}

// IncrementalPacketEngine is the optional delta-update capability of the
// whole-packet tier. The Table I structures are precomputed, so their base
// update primitive is Install — a full rebuild; engines whose structure is
// decomposable (DCFL per field, HyperCuts per leaf) can additionally splice
// one rule in or out without rebuilding, which is what keeps publish latency
// flat under SDN flow-mod churn.
//
// Rule contract: a delta names only the rule, never where it sits. The
// structure places an inserted rule after every rule of the same or a better
// priority — ties stay in installation order, as in the table handed to
// Install — and a delete removes the first-installed rule with the same
// matches (Rule.SameMatch) and an equal priority, or fails when none is
// installed. After either op (and, for an engine that implements Preparer,
// its Prepare), LookupPacket must answer exactly as a fresh Install over the
// classifier's rule table would, with ids that Verdict resolves. Ids stay
// stable between builds, so a structure may retire the id of a deleted rule
// instead of reusing it; it keeps its dead ids bounded by declining a delta
// once they would outnumber the live ones plus 64.
//
// A failed op tells the classifier which of two things happened: an error
// wrapping ErrRefused refuses the rule, and the op fails; any other error
// declines the delta, and the classifier rebuilds the structure over its
// rule table instead. Either way the op must have changed nothing.
//
// Concurrency contract: delta ops are writes and follow the same rule as
// Install — external serialisation, never on a published structure. After
// Clone, both handles copy-on-write before their first delta, so neither
// handle ever observes the other's deltas; the classifier relies on this
// when it delta-updates a cloned snapshot while readers traverse the
// published one.
type IncrementalPacketEngine interface {
	PacketEngine
	// InsertRule adds r after every installed rule of the same or a better
	// priority.
	InsertRule(r fivetuple.Rule) (UpdateReport, error)
	// DeleteRule removes the first-installed rule with r's matches and
	// priority, and fails, changing nothing, when no such rule is
	// installed.
	DeleteRule(r fivetuple.Rule) (UpdateReport, error)
	// UpdateCost reports the delta debt since the last full Install.
	UpdateCost() UpdateCost
}

// IncrementalPacketEngineNames returns the sorted names of the registered
// whole-packet engines whose instances implement IncrementalPacketEngine.
func IncrementalPacketEngineNames() (names []string) {
	for _, name := range PacketEngineNames() {
		eng, _ := NewPacket(name, Spec{}) // nil when the factory fails
		if _, ok := eng.(IncrementalPacketEngine); ok {
			names = append(names, name)
		}
	}
	return names
}
