package engine

import (
	"sdnpc/internal/algo/rfc"
	"sdnpc/internal/fivetuple"
)

func init() {
	MustRegister(Definition{
		Name:          "rfc-full",
		Description:   "full Recursive Flow Classification: constant 13-indexing lookup, largest precomputed tables (Table I)",
		PacketFactory: newRFCFullEngine,
	})
}

// rfcFullEngine adapts the full multi-field RFC classifier (Gupta & McKeown,
// SIGCOMM'99) to the PacketEngine tier. The cross-product tables are
// precomputed over the whole rule set, so Install is a full rebuild; the
// pay-off is the fastest whole-packet lookup of Table I — a constant 13
// table indexings regardless of rule count.
type rfcFullEngine struct {
	rules []fivetuple.Rule
	c     *rfc.Classifier
}

func newRFCFullEngine(Spec) (PacketEngine, error) { return &rfcFullEngine{}, nil }

func (e *rfcFullEngine) Install(rules []fivetuple.Rule) error {
	if len(rules) == 0 {
		e.rules, e.c = nil, nil
		return nil
	}
	c, err := rfc.Build(fivetuple.NewRuleSet("rfc-full", rules))
	if err != nil {
		return err
	}
	e.rules = rules
	e.c = c
	return nil
}

func (e *rfcFullEngine) LookupPacket(h fivetuple.Header) (int, bool, int) {
	if e.c == nil {
		return 0, false, 0
	}
	return e.c.Classify(h)
}

// Verdict returns the verdict of the installed rule with index id, the id
// LookupPacket answered: the RFC tables keep no rule, only indices into the
// installed slice.
func (e *rfcFullEngine) Verdict(id int) fivetuple.Verdict { return e.rules[id].Verdict() }

func (e *rfcFullEngine) Cost() CostModel {
	accesses := 13
	if e.c != nil {
		accesses = e.c.AccessesPerLookup()
	}
	// Each phase indexes its tables independently, so the phases pipeline
	// with a new packet every cycle.
	return CostModel{LookupCycles: accesses, InitiationInterval: 1, WorstCaseAccesses: accesses}
}

func (e *rfcFullEngine) Footprint() Footprint {
	if e.c == nil {
		return Footprint{}
	}
	return Footprint{NodeBits: e.c.MemoryBits()}
}

// Clone shares the immutable built tables; a later Install on either handle
// replaces that handle's pointer only.
func (e *rfcFullEngine) Clone() PacketEngine {
	cp := *e
	return &cp
}
