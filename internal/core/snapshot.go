package core

import (
	"fmt"

	"sdnpc/internal/engine"
	"sdnpc/internal/fieldtier"
	"sdnpc/internal/fivetuple"
)

// snapshot is one complete state of the classifier's data path: the
// best-first rule table plus the one engine programmed from it — the
// paper's field engine (internal/fieldtier) or a whole-packet engine.
// Switching engines builds a fresh engine for the named one from the
// installed rules and swaps it in, as the controller re-downloads the memory
// images after a configuration change.
//
// Snapshots are the unit of the classifier's RCU-style concurrency scheme.
// A published snapshot is immutable — lookups traverse it without any lock
// and write nothing to it (no engine counts its own accesses; a lookup's
// cost travels in its Result), so one snapshot serves every lane. Updates
// never touch a published snapshot: they clone it, mutate the private clone
// and atomically publish the result (see Classifier). In-flight lookups keep
// reading the snapshot they loaded, so every result is consistent with
// either the pre-update or the post-update rule set, never a mixture.
type snapshot struct {
	// gen is the publication generation, assigned by Classifier.publish from
	// a monotonic counter. It keys the microflow cache: cache entries record
	// the generation of the snapshot whose lookup produced them and are only
	// served to readers of that same generation, so publishing a successor
	// invalidates every cached verdict in O(1) without a flush. A snapshot
	// that is never published keeps generation 0, which publish never
	// assigns.
	gen uint64

	// name is the registry name of the engine answering lookups.
	name   string
	engine engine.PacketEngine
	// modelled is engine's counted lookup when it has one (the field
	// engine) and packetDims the extension dimensions the engine's registry
	// definition declares: both resolved once, so neither a lookup nor an
	// update asserts an interface or takes the registry lock per packet or
	// rule.
	modelled   modelled
	packetDims fivetuple.DimSet

	// table is the rule table, and the only copy of it above the serving
	// engine: best-first — ascending Priority, ties in installation order —
	// so a scan of it meets the highest-priority match first.
	table ruleTable
}

// modelled is the optional interface of an engine the paper's hardware
// model counts: the field engine. Its lookup fills Result's four model
// counters and may leave a header to the rule-table scan, once the walk
// would read more Rule Filter slots than Config.MaxCrossProductProbes
// allows; its memory is Report().Memory's field half.
type modelled interface {
	LookupCounted(h fivetuple.Header) (id int, matched bool, n fieldtier.Counts, exhausted bool)
	Memory() fieldtier.Memory
}

// newEngine builds an empty engine by registered name. It is the one place
// the classifier tells the paper's field engine from a whole-packet engine:
// an IP-capable name builds the field engine serving the IP segments with
// it, every other selectable name the registry's whole-packet engine.
func newEngine(cfg *Config, name string) (engine.PacketEngine, error) {
	isPacket, ok := engine.Selectable(name)
	if !ok {
		return nil, fmt.Errorf("core: unknown engine %q (selectable: %v)", name, engine.SelectableNames())
	}
	if !isPacket {
		return fieldtier.New(name, cfg.PortRegisters, cfg.MaxCrossProductProbes)
	}
	eng, err := engine.NewPacket(name, engine.Spec{})
	if err != nil {
		return nil, err
	}
	return eng, eng.Install(nil)
}

// newSnapshot builds the data path the named engine serves from and
// programmes it with the given rules: the rule table places each by
// priority, and the engine is built over the table.
func newSnapshot(cfg *Config, name string, rules []fivetuple.Rule) (*snapshot, error) {
	eng, err := newEngine(cfg, name)
	if err != nil {
		return nil, err
	}
	s := &snapshot{name: name, packetDims: engine.Dims(name)}
	s.setEngine(eng)
	s.table.ownIDs(len(rules))
	for _, r := range rules {
		if err := s.admit(r); err != nil {
			return nil, fmt.Errorf("core: programming the %s engine: %w", name, err)
		}
		s.table.insert(s.table.bound(r.Priority, true), r)
	}
	if len(rules) > 0 {
		if err := s.rebuild(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// setEngine makes eng the snapshot's engine.
func (s *snapshot) setEngine(eng engine.PacketEngine) {
	s.engine = eng
	s.modelled, _ = eng.(modelled)
}

// admit checks that the snapshot's engine serves every dimension the rule
// requires (IPv6, VLAN, TCP flags, masked protocol, non-terminating
// semantics) — otherwise the install is refused rather than silently
// misclassified. How many rules fit is the engine's to refuse.
func (s *snapshot) admit(r fivetuple.Rule) error {
	if dims := r.Dims(); !s.packetDims.Covers(dims) {
		return fmt.Errorf("%w: rule %s requires dimensions %s but engine %q serves %s",
			ErrDimsUnsupported, r, dims, s.name, s.packetDims)
	}
	return nil
}

// rebuild rebuilds the snapshot's engine over the rule table. A build
// failure (e.g. an RFC cross-product explosion) leaves the engine as it was.
func (s *snapshot) rebuild() error {
	// The Table I structures resolve ties by table order: hand them the rule
	// table, best-first.
	if err := s.engine.Install(s.table.copyRules()); err != nil {
		return fmt.Errorf("core: building the %s engine over %d rules: %w", s.name, s.table.len(), err)
	}
	return nil
}

// clone returns an independent copy of the snapshot — the rule table copied,
// the engine sharing structure with the original until written — so the copy
// can absorb an update while readers keep traversing the original.
func (s *snapshot) clone() *snapshot {
	c := &snapshot{name: s.name, packetDims: s.packetDims, table: s.table.clone()}
	c.setEngine(s.engine.Clone())
	return c
}

// findInstalled locates the first-installed rule with the same field matches
// and priority, or returns -1. Identity goes through Rule.SameMatch so every
// dimension — including the IPv6/VLAN/flag extensions — participates in the
// comparison. The table is priority-sorted, so the scan is bounded to the
// equal-priority run.
func (s *snapshot) findInstalled(r fivetuple.Rule) int {
	t := &s.table
	for i := t.bound(r.Priority, false); i < t.len() && t.at(i).Priority == r.Priority; i++ {
		if t.at(i).SameMatch(r) {
			return i
		}
	}
	return -1
}
