package sdnpc

import (
	"fmt"

	"sdnpc/internal/classbench"
)

// GenerateRuleSet produces a ClassBench-style synthetic filter set. class is
// "acl", "fw" or "ipc" (Table III); size is "1k", "5k" or "10k".
func GenerateRuleSet(class, size string) (*RuleSet, error) {
	cls, err := classbench.ParseClass(class)
	if err != nil {
		return nil, fmt.Errorf("sdnpc: %w", err)
	}
	sz, err := classbench.ParseSize(size)
	if err != nil {
		return nil, fmt.Errorf("sdnpc: %w", err)
	}
	return classbench.Generate(classbench.StandardConfig(cls, sz)), nil
}

// MustGenerateRuleSet is like GenerateRuleSet but panics on error.
func MustGenerateRuleSet(class, size string) *RuleSet {
	rs, err := GenerateRuleSet(class, size)
	if err != nil {
		panic(err)
	}
	return rs
}

// TraceOptions parameterise synthetic trace generation.
type TraceOptions struct {
	// Packets is the trace length.
	Packets int
	// Seed makes the trace reproducible.
	Seed int64
	// MatchFraction is the fraction of packets drawn to hit some rule.
	MatchFraction float64
	// Locality biases consecutive packets towards the same flows.
	Locality float64
	// ZipfSkew, when > 1, replays a fixed population of flows with
	// Zipf-ranked popularity (rank-1 hottest) instead of drawing every
	// packet independently — the repeated-five-tuple traffic shape the
	// microflow cache exploits. A skew of 1.1 is a realistic heavy tail.
	ZipfSkew float64
	// Flows sizes the flow population in Zipf mode; <= 0 selects
	// min(Packets, 4096).
	Flows int
}

// GenerateTrace produces a synthetic header trace exercising the rule set.
func GenerateTrace(rs *RuleSet, opts TraceOptions) []Header {
	if opts.Packets <= 0 {
		opts.Packets = 10000
	}
	if opts.MatchFraction == 0 {
		opts.MatchFraction = 0.9
	}
	return classbench.GenerateTrace(rs, classbench.TraceConfig{
		Packets:       opts.Packets,
		Seed:          opts.Seed,
		MatchFraction: opts.MatchFraction,
		Locality:      opts.Locality,
		ZipfSkew:      opts.ZipfSkew,
		Flows:         opts.Flows,
	})
}

// UpdateTraceOptions parameterise churn-trace generation — a deterministic
// flow-mod storm derived from a rule set, for exercising the incremental
// update plane.
type UpdateTraceOptions struct {
	// Ops is the number of mutations; <= 0 selects 1000.
	Ops int
	// Seed makes the trace reproducible.
	Seed int64
	// InsertFraction is the insert/delete mix (0 = the balanced default of
	// 0.5; negative = pure deletes; clamped above at 1).
	InsertFraction float64
	// Locality, in [0,1), concentrates the churn on the same high-priority
	// rules — the delete-then-reinsert pattern of flapping flows.
	Locality float64
}

// GenerateUpdateTrace derives a mutation sequence from the rule set that is
// valid to Apply (or Insert/Delete one by one) against a classifier holding
// it: deletes always name live rules, inserts are fresh or reinstated rules.
func GenerateUpdateTrace(rs *RuleSet, opts UpdateTraceOptions) []UpdateOp {
	if opts.Ops <= 0 {
		opts.Ops = 1000
	}
	raw := classbench.GenerateUpdateTrace(rs, classbench.UpdateTraceConfig{
		Ops:            opts.Ops,
		Seed:           opts.Seed,
		InsertFraction: opts.InsertFraction,
		Locality:       opts.Locality,
	})
	ops := make([]UpdateOp, len(raw))
	for i, op := range raw {
		ops[i] = UpdateOp{Delete: op.Delete, Rule: op.Rule}
	}
	return ops
}
