package engine

import (
	"fmt"

	"sdnpc/internal/fivetuple"
)

func init() {
	MustRegister(Definition{
		Name:          "linear",
		Description:   "Priority-ordered linear scan: serves every dimension (IPv6/VLAN/TCP-flags/masked-proto/multi-action), O(n) lookup",
		PacketFactory: newLinearEngine,
		Incremental:   true,
		// The scan evaluates Rule.Matches directly, so every dimension the
		// rule model can express is served — this is the capability ceiling
		// the conformance suite measures the specialised engines against.
		Dims: fivetuple.AllDims,
	})
}

// linearEngine is the whole-packet form of the reference classifier: a
// priority-ordered scan over the installed rules. It is the only engine
// serving the full extension-dimension set, trading O(n) lookup for complete
// generality — the honest baseline a generalized flow table falls back to
// when no precomputed structure can represent its rules.
type linearEngine struct {
	rules []fivetuple.Rule
	// installed distinguishes a built (possibly empty) scan from a
	// never-installed engine: deltas against the latter must fail so the
	// classifier falls back to a full rebuild.
	installed bool
	deltas    int
}

func newLinearEngine(Spec) (PacketEngine, error) { return &linearEngine{}, nil }

func (e *linearEngine) Install(rules []fivetuple.Rule) error {
	e.rules = rules
	e.installed = true
	e.deltas = 0
	return nil
}

func (e *linearEngine) InsertRule(r fivetuple.Rule, idx int) error {
	if !e.installed {
		return fmt.Errorf("linear: no installed scan to delta-update (install first)")
	}
	if idx < 0 || idx > len(e.rules) {
		return fmt.Errorf("linear: insert index %d out of range [0,%d]", idx, len(e.rules))
	}
	e.rules = spliceIn(e.rules, r, idx)
	e.deltas++
	return nil
}

func (e *linearEngine) DeleteRule(r fivetuple.Rule, idx int) error {
	if !e.installed {
		return fmt.Errorf("linear: no installed scan to delta-update (install first)")
	}
	if idx < 0 || idx >= len(e.rules) || !e.rules[idx].SameMatch(r) {
		return fmt.Errorf("linear: delete index %d does not hold rule %s", idx, r)
	}
	e.rules = spliceOut(e.rules, idx)
	e.deltas++
	return nil
}

// spliceIn returns a fresh slice with r inserted at idx. It never mutates
// the input's backing array, which the handle this one was cloned from — a
// published snapshot's engine — still scans.
func spliceIn(rules []fivetuple.Rule, r fivetuple.Rule, idx int) []fivetuple.Rule {
	out := make([]fivetuple.Rule, 0, len(rules)+1)
	out = append(out, rules[:idx]...)
	out = append(out, r)
	return append(out, rules[idx:]...)
}

// spliceOut returns a fresh slice with the rule at idx removed, again
// without touching the shared input.
func spliceOut(rules []fivetuple.Rule, idx int) []fivetuple.Rule {
	out := make([]fivetuple.Rule, 0, len(rules)-1)
	out = append(out, rules[:idx]...)
	return append(out, rules[idx+1:]...)
}

// UpdateCost never reports degradation: a splice leaves the scan exactly as a
// fresh Install would, so no amortising rebuild is ever warranted.
func (e *linearEngine) UpdateCost() UpdateCost {
	return UpdateCost{Deltas: e.deltas, Writes: e.deltas}
}

func (e *linearEngine) LookupPacket(h fivetuple.Header) (int, bool, int) {
	accesses := 0
	for i := range e.rules {
		accesses++
		if e.rules[i].Matches(h) {
			return i, true, accesses
		}
	}
	return 0, false, accesses
}

// LookupPacketAll scans best-first, so matches append in priority order and
// collection stops naturally at the first terminating match.
func (e *linearEngine) LookupPacketAll(h fivetuple.Header, dst []int) ([]int, int) {
	accesses := 0
	for i := range e.rules {
		accesses++
		if !e.rules[i].Matches(h) {
			continue
		}
		dst = append(dst, i)
		if !e.rules[i].NonTerminating {
			break
		}
	}
	return dst, accesses
}

func (e *linearEngine) Cost() CostModel {
	n := len(e.rules)
	if n == 0 {
		n = 1
	}
	// The scan walks one rule memory sequentially: n accesses worst case,
	// and the engine cannot accept a new packet until the scan finishes.
	return CostModel{LookupCycles: n, InitiationInterval: n, WorstCaseAccesses: n}
}

func (e *linearEngine) Footprint() Footprint {
	// Each stored rule is ~176 bits of IPv4 match data plus 288 bits for the
	// IPv6 prefixes and 48 bits of VLAN/flag/metadata extensions.
	return Footprint{NodeBits: len(e.rules) * (176 + 288 + 48)}
}

// Clone shares the installed slice; Install and the delta ops replace the
// slice (spliceIn/spliceOut never mutate the shared backing array), so
// neither handle can observe the other's mutations.
func (e *linearEngine) Clone() PacketEngine {
	cp := *e
	return &cp
}
