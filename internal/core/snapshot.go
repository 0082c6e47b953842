package core

import (
	"fmt"

	"sdnpc/internal/engine"
	"sdnpc/internal/fivetuple"
	"sdnpc/internal/label"
)

// snapshot is one complete state of the classifier's data path: the
// best-first rule table plus exactly one serving tier programmed from it —
// the field tier (per-dimension engines, label bank, Rule Filter) or the
// packet tier (one whole-packet structure), never both. Switching engines
// builds a fresh tier for the named engine from the installed rules and
// swaps it in, as the controller re-downloads the memory images after a
// configuration change.
//
// Snapshots are the unit of the classifier's RCU-style concurrency scheme.
// A published snapshot is immutable — lookups traverse it without any lock
// and write nothing to it (no engine, the rule filter included, counts its
// own accesses; a lookup's cost travels in its Result), so one snapshot
// serves every lane. Updates never touch a published snapshot:
// they clone it, mutate the private clone and atomically publish the result
// (see Classifier). In-flight lookups keep reading the snapshot they loaded,
// so every result is consistent with either the pre-update or the
// post-update rule set, never a mixture.
type snapshot struct {
	// gen is the publication generation, assigned by Classifier.publish from
	// a monotonic counter. It keys the microflow cache: cache entries record
	// the generation of the snapshot whose lookup produced them and are only
	// served to readers of that same generation, so publishing a successor
	// invalidates every cached verdict in O(1) without a flush. A snapshot
	// that is never published keeps generation 0, which publish never
	// assigns.
	gen uint64

	// Exactly one of field and packet is non-nil: the tier the selected
	// engine belongs to.
	field  *fieldTier
	packet *packetTier

	// table is the rule table, and the only copy of it above the serving
	// structure: best-first — ascending Priority, ties in installation order —
	// so a whole-packet engine's rule indices resolve straight into it and a
	// scan of it meets the highest-priority match first.
	table ruleTable
}

// fieldTier is the paper's data path: one lookup engine per header
// dimension, the label tables they answer in, and the Rule Filter the label
// combination is looked up in.
type fieldTier struct {
	// engineName is the registered engine serving the four IP-segment
	// dimensions.
	engineName string

	// labels is the controller's bookkeeping: which label every field value
	// carries and which rule priorities use it. It is the writer's state, not
	// the data path's — one bank per tier, shared by every generation cloned
	// from it, reached only with Classifier.mu held and never by a lookup or
	// Report (which reads labelTableBits). It describes the newest tier of
	// the chain: the published one between transactions, the working copy
	// inside one; an abandoned transaction puts it back with restoreLabels.
	labels *label.Bank[engine.Value]
	// labelTableBits is labels.StorageBits() as of prepare.
	labelTableBits int

	// engines holds the per-dimension field lookup engines, indexed by
	// Dimension (a dense 1-based enum; entry 0 is unused).
	engines [label.NumDimensions + 1]engine.FieldEngine

	filter *ruleFilter

	// prefixes is the set of label prefixes the installed rules' combination
	// keys have, which lets the combination walk skip label tuples no rule
	// uses. prepare rebuilds it from the table on every publish in the exact
	// combination mode; it is empty in HPML mode, and clone does not carry
	// it.
	prefixes prefixSet
}

// packetTier is the whole-packet engine tier: one precomputed multi-field
// structure answers the header directly.
type packetTier struct {
	name string

	// engine is nil only between newSnapshot and the first syncPacket, which
	// builds it in full; a published packet tier always has one.
	engine engine.PacketEngine

	// dims is the engine's registry-declared dimension support
	// (engine.Dims(name)), resolved once when the tier is built so the
	// per-packet serving path never takes the registry lock.
	dims fivetuple.DimSet

	// Update plane. pending records the rule mutations applied to this
	// (unpublished) snapshot since it was cloned; syncPacket drains it —
	// through the engine's delta ops when it is incremental and the policy
	// allows, through a full rebuild otherwise — so a published snapshot has
	// none. Its backing array is the writer's: each clone takes it over,
	// drained, so publishes reuse one buffer. deltas counts the delta ops the
	// current structure has absorbed since its last full build (the debt the
	// RebuildAfterDeltas policy bounds); it is carried across clones and reset
	// by every rebuild.
	pending []packetDelta
	deltas  int
}

// packetDelta is one pending rule mutation awaiting packet-tier sync: the
// rule and the position in the rule table it was placed at or removed from,
// as of the moment the op was applied to the table.
type packetDelta struct {
	delete bool
	rule   fivetuple.Rule
	idx    int
}

// activeEngineName returns the registry name of the engine answering this
// snapshot's lookups.
func (s *snapshot) activeEngineName() string {
	if s.packet != nil {
		return s.packet.name
	}
	return s.field.engineName
}

// servedDims returns the extension dimensions the serving tier covers. The
// field tier serves only the IPv4 five-tuple. It decides the family
// fallback: an IPv6 header is served by the precomputed structure only when
// this set covers DimIPv6, and by the installed-rule scan otherwise.
func (s *snapshot) servedDims() fivetuple.DimSet {
	if s.packet != nil {
		return s.packet.dims
	}
	return 0
}

// newSnapshot builds the data path the named engine serves from — an empty
// tier of the engine's kind — and programmes it with the given rules, one
// by one in the order given (the rule table places each by priority).
func newSnapshot(cfg *Config, name string, rules []fivetuple.Rule) (*snapshot, error) {
	isPacket, ok := engine.Selectable(name)
	if !ok {
		return nil, fmt.Errorf("core: unknown engine %q (selectable: %v)", name, engine.SelectableNames())
	}
	s := &snapshot{}
	s.table.ownIDs(len(rules))
	if isPacket {
		s.packet = &packetTier{name: name, dims: engine.Dims(name)}
	} else {
		f, err := newFieldTier(cfg, name)
		if err != nil {
			return nil, err
		}
		s.field = f
	}
	for _, r := range rules {
		if _, err := s.insertRule(cfg, r); err != nil {
			return nil, fmt.Errorf("core: programming the %s engine: %w", name, err)
		}
	}
	if _, err := s.syncPacket(cfg); err != nil {
		return nil, err
	}
	return s, nil
}

// newFieldTier builds an empty field tier for the named IP-segment engine:
// every engine, label table and the rule filter.
func newFieldTier(cfg *Config, engineName string) (*fieldTier, error) {
	f := &fieldTier{engineName: engineName, labels: label.NewBank[engine.Value]()}
	for _, d := range label.Dimensions() {
		eng, err := f.buildEngine(cfg, d)
		if err != nil {
			return nil, err
		}
		f.engines[d] = eng
	}
	f.filter = newRuleFilter(cfg.RuleFilterAddressBits, cfg.RuleCapacityFor(engineName), cfg.RuleEntryBits)
	return f, nil
}

// buildEngine constructs a fresh engine for one dimension of this tier's
// engine selection.
func (f *fieldTier) buildEngine(cfg *Config, d label.Dimension) (engine.FieldEngine, error) {
	switch d {
	case label.DimSrcIPHigh, label.DimSrcIPLow, label.DimDstIPHigh, label.DimDstIPLow:
		eng, err := engine.New(f.engineName, engine.Spec{
			KeyBits:   16,
			LabelBits: d.Bits(),
		})
		if err != nil {
			return nil, fmt.Errorf("core: building %s engine for %s: %w", f.engineName, d, err)
		}
		return eng, nil
	case label.DimSrcPort, label.DimDstPort:
		eng, err := engine.New("portreg", engine.Spec{
			KeyBits:   16,
			LabelBits: d.Bits(),
			Registers: cfg.PortRegisters,
		})
		if err != nil {
			return nil, fmt.Errorf("core: building port engine for %s: %w", d, err)
		}
		return eng, nil
	case label.DimProtocol:
		eng, err := engine.New("lut", engine.Spec{KeyBits: 8, LabelBits: DefaultProtocolLabelBits})
		if err != nil {
			return nil, fmt.Errorf("core: building protocol engine: %w", err)
		}
		return eng, nil
	default:
		return nil, fmt.Errorf("core: unknown dimension %v", d)
	}
}

// clone returns an independent copy of the snapshot — the rule table copied,
// the one tier it holds sharing structure with the original until written —
// so the copy can absorb an update while readers keep traversing the
// original.
func (s *snapshot) clone() *snapshot {
	c := &snapshot{table: s.table.clone()}
	if p := s.packet; p != nil {
		// The clone shares the built structure; a rebuild after a rule change
		// replaces only the clone's handle, and a delta update copy-on-writes
		// inside the engine — never the published one either way.
		c.packet = &packetTier{name: p.name, engine: p.engine.Clone(), dims: p.dims, pending: p.pending[:0], deltas: p.deltas}
		return c
	}
	c.field = s.field.clone()
	return c
}

// clone returns an independent copy of the field tier that costs what the
// next writes touch, not what the tier holds: the Rule Filter shares its
// chunks, every engine shares whatever its Clone shares (the tries every
// node), and the label bank is the same bank.
func (f *fieldTier) clone() *fieldTier {
	c := &fieldTier{engineName: f.engineName, labels: f.labels, filter: f.filter.clone()}
	for _, d := range label.Dimensions() {
		c.engines[d] = f.engines[d].Clone()
	}
	return c
}

// restoreLabels puts the label bank back to what the given (published) rule
// table implies, after a transaction that had applied ops to the bank was
// abandoned. The bank is derived state — every installed rule carries its
// field values, its labels (the combination key) and its priority — so this
// is one replay of the table, on the failure path only.
func (f *fieldTier) restoreLabels(table *ruleTable) {
	for _, d := range label.Dimensions() {
		f.labels.Table(d).Restore(table.len(), func(i int) (engine.Value, label.PriorityLabel) {
			r := table.at(i)
			return fieldValue(d, *r), label.PriorityLabel{Label: table.key(i).Label(d), Priority: r.Priority}
		})
	}
}

// publishSync reports how syncPacket brought the packet tier in step with
// the installed rules: how many pending mutations were delta-applied, or
// whether the precomputed structure was rebuilt in full.
type publishSync struct {
	deltas  int
	rebuilt bool
}

// syncPacket brings the whole-packet engine in sync with the installed rules
// before a mutated snapshot is published; a field-tier snapshot, whose
// engines are updated in place per rule, has nothing to sync. When the
// engine is incremental and the update policy allows, the pending mutations
// are delta-applied — the flat-latency path SDN flow-mod churn rides;
// otherwise the structure is rebuilt from scratch. The policy forces the
// amortising rebuild in two cases: the structure's delta debt would reach
// Config.RebuildAfterDeltas, or the applied deltas push the engine's
// degradation past Config.DegradationThreshold. A build failure (e.g. an
// RFC cross-product explosion) surfaces as the update's error and nothing is
// published.
func (s *snapshot) syncPacket(cfg *Config) (publishSync, error) {
	p := s.packet
	if p == nil || (p.engine != nil && len(p.pending) == 0) {
		return publishSync{}, nil
	}
	if p.engine != nil {
		if inc, ok := p.engine.(engine.IncrementalPacketEngine); ok && p.deltaBudgetAllows(cfg) {
			if applied, ok := p.applyDeltas(cfg, inc); ok {
				return publishSync{deltas: applied}, nil
			}
			// The delta path declined (an op failed midway, or the applied
			// deltas tripped the degradation threshold); the full rebuild
			// below repairs whatever state the engine is in.
		}
	} else {
		eng, err := engine.NewPacket(p.name, engine.Spec{})
		if err != nil {
			return publishSync{}, err
		}
		p.engine = eng
	}
	// The Table I structures resolve ties by table order and answer in
	// indices into the slice they were built over: hand them the rule table.
	if err := p.engine.Install(s.table.copyRules()); err != nil {
		return publishSync{}, fmt.Errorf("core: building %s packet engine over %d rules: %w", p.name, s.table.len(), err)
	}
	// A rebuild may follow a whole rule set's inserts: drop the buffer rather
	// than keep it in the published snapshot.
	p.pending = nil
	p.deltas = 0
	return publishSync{rebuilt: true}, nil
}

// deltaBudgetAllows applies the amortisation bound: a publish whose pending
// mutations would push the structure's delta debt to RebuildAfterDeltas (or
// past it) must rebuild instead.
func (p *packetTier) deltaBudgetAllows(cfg *Config) bool {
	k := cfg.rebuildAfterDeltas()
	return k <= 0 || p.deltas+len(p.pending) < k
}

// applyDeltas forwards the pending mutations to the engine's delta ops at
// the rule-table positions insertRule and deleteRule recorded, so the
// structure's rule order stays the table's and a delta-updated structure
// answers as one rebuilt over the table would. ok is false when an op failed
// or the applied deltas tripped the degradation threshold; the caller then
// rebuilds.
func (p *packetTier) applyDeltas(cfg *Config, inc engine.IncrementalPacketEngine) (applied int, ok bool) {
	for _, op := range p.pending {
		var err error
		if op.delete {
			err = inc.DeleteRule(op.rule, op.idx)
		} else {
			err = inc.InsertRule(op.rule, op.idx)
		}
		if err != nil {
			return 0, false
		}
	}
	if inc.UpdateCost().Degradation >= cfg.degradationThreshold() {
		// The deltas themselves tripped the degradation bound: amortise now,
		// in the same publish, rather than serving a degraded structure.
		return 0, false
	}
	applied = len(p.pending)
	p.pending = p.pending[:0]
	p.deltas += applied
	return applied, true
}

// prepare forces every deferred engine-side build (engine.Preparer) so that
// a published snapshot never mutates itself inside Lookup, rebuilds the
// field tier's prefix set, which must not be recomputed per packet, and
// stamps the tier with the label bank's footprint so Report never reads the
// writer's bank. A packet tier is complete once syncPacket has run.
func (s *snapshot) prepare(cfg *Config) {
	f := s.field
	if f == nil {
		return
	}
	f.labelTableBits = f.labels.StorageBits()
	f.prefixes = prefixSet{}
	if cfg.CombineMode != CombineHPML {
		f.prefixes = newPrefixSet(&s.table)
	}
	for _, d := range label.Dimensions() {
		if p, ok := f.engines[d].(engine.Preparer); ok {
			p.Prepare()
		}
	}
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
