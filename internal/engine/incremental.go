package engine

import (
	"sort"

	"sdnpc/internal/fivetuple"
)

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
// Index contract: both ops are expressed against the installed best-first
// rule order — the table handed to Install, kept current across deltas by the
// structure and, as its own rule table, by the classifier.
// InsertRule splices r in at position idx — indices at or above idx shift up
// by one — and DeleteRule removes the rule at idx — indices above it shift
// down. After either op, LookupPacket must answer exactly as a fresh Install
// over the spliced slice would.
//
// Concurrency contract: delta ops are writes and follow the same rule as
// Install — external serialisation, never on a published structure. A handle
// obtained from Clone must copy-on-write before its first delta so the
// mutation is never observable through the other handle; the classifier
// relies on this when it delta-updates a cloned snapshot while readers
// traverse the published one.
type IncrementalPacketEngine interface {
	PacketEngine
	// InsertRule splices r into the installed best-first order at idx.
	InsertRule(r fivetuple.Rule, idx int) error
	// DeleteRule removes the rule at idx of the installed best-first order;
	// r is the rule the caller believes lives there, and an implementation
	// whose table holds a rule with different matches at idx (Rule.SameMatch)
	// rejects the divergent view instead of corrupting the structure.
	DeleteRule(r fivetuple.Rule, idx int) error
	// UpdateCost reports the delta debt since the last full Install.
	UpdateCost() UpdateCost
}

// IncrementalPacketEngineNames returns the sorted names of the registered
// whole-packet engines that declare delta-update support.
func IncrementalPacketEngineNames() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]string, 0, len(registry))
	for name, def := range registry {
		if def.PacketFactory != nil && def.Incremental {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}
