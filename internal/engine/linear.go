package engine

import (
	"fmt"
	"slices"
	"sort"

	"sdnpc/internal/fivetuple"
)

func init() {
	MustRegister(Definition{
		Name:          "linear",
		Description:   "Priority-ordered linear scan: serves every dimension (IPv6/VLAN/TCP-flags/masked-proto/multi-action), O(n) lookup",
		PacketFactory: newLinearEngine,
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

// InsertRule splices r in after every rule of the same or a better priority.
// Neither splice writes the shared backing array, which the handle this one
// was cloned from — a published snapshot's engine — still scans.
func (e *linearEngine) InsertRule(r fivetuple.Rule) (UpdateReport, error) {
	if !e.installed {
		return UpdateReport{}, fmt.Errorf("linear: no installed scan to delta-update (install first)")
	}
	i := sort.Search(len(e.rules), func(i int) bool { return e.rules[i].Priority > r.Priority })
	e.rules = slices.Insert(slices.Clip(e.rules), i, r)
	e.deltas++
	return UpdateReport{}, nil
}

// DeleteRule splices out the first rule with r's matches and priority.
func (e *linearEngine) DeleteRule(r fivetuple.Rule) (UpdateReport, error) {
	if !e.installed {
		return UpdateReport{}, fmt.Errorf("linear: no installed scan to delta-update (install first)")
	}
	i := slices.IndexFunc(e.rules, func(q fivetuple.Rule) bool { return q.Priority == r.Priority && q.SameMatch(r) })
	if i < 0 {
		return UpdateReport{}, fmt.Errorf("linear: rule %s priority %d is not installed", r, r.Priority)
	}
	e.rules = slices.Concat(e.rules[:i], e.rules[i+1:])
	e.deltas++
	return UpdateReport{}, nil
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

// Verdict returns the verdict of the rule at position id of the scan, the id
// LookupPacket answered.
func (e *linearEngine) Verdict(id int) fivetuple.Verdict { return e.rules[id].Verdict() }

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
// slice (a splice never mutates the shared backing array), so neither handle
// can observe the other's mutations.
func (e *linearEngine) Clone() PacketEngine {
	cp := *e
	return &cp
}
