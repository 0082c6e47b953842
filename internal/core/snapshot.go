package core

import (
	"fmt"
	"sort"

	"sdnpc/internal/engine"
	"sdnpc/internal/fivetuple"
	"sdnpc/internal/hw/memory"
	"sdnpc/internal/label"
)

// snapshot is one complete state of the classifier's data path: the
// per-dimension lookup engines, the label bank, the rule filter and the
// installed-rule shadow.
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
	engineName string
	alg        memory.AlgSelect

	// gen is the publication generation, assigned by Classifier.publish from
	// a monotonic counter. It keys the microflow cache: cache entries record
	// the generation of the snapshot whose lookup produced them and are only
	// served to readers of that same generation, so publishing a successor
	// invalidates every cached verdict in O(1) without a flush. A snapshot
	// that is never published keeps generation 0, which publish never
	// assigns.
	gen uint64

	labels    *label.Bank
	fieldUses map[label.Dimension]map[string]*fieldUse

	// engines holds the per-dimension field lookup engines.
	engines map[label.Dimension]engine.FieldEngine

	// sharedL2 models the IPalg_s-selected shared blocks of Fig. 5, one per
	// IP segment. An engine switch builds a snapshot with fresh blocks
	// instead of re-owning these, so concurrent readers of the old snapshot
	// never observe the ownership change.
	sharedL2 map[label.Dimension]*memory.SharedBlock

	filter    *ruleFilter
	installed []installedRule

	// prefixes is the set of label prefixes the installed rules' combination
	// keys have, which lets the field tier's combination walk skip label
	// tuples no rule uses. prepare rebuilds it from installed on every
	// publish of a snapshot whose own field tier serves in the exact
	// combination mode; it is empty while a packet engine or HPML mode
	// answers, and clone does not carry it.
	prefixes prefixSet

	// Whole-packet engine tier. When packetName is non-empty, lookups are
	// served by packet — one precomputed multi-field structure — instead of
	// the per-field engines above, which stay programmed so the classifier
	// can switch tiers without a re-download. packetRules is the best-first
	// rule order the engine currently answers in (LookupPacket indices
	// resolve into it). A nil packet with a non-empty packetName marks a
	// structural invalidation (tier selection, engine switch) that forces a
	// full build before the snapshot is published.
	packetName  string
	packet      engine.PacketEngine
	packetRules []fivetuple.Rule

	// packetDims caches the packet engine's registry-declared dimension
	// support (engine.Dims(packetName)), resolved once per publish by prepare
	// so the per-packet serving path never takes the registry lock. It decides
	// the family fallback: an IPv6 header is served by the packet structure
	// only when this set covers DimIPv6, and by the installed-rule scan
	// otherwise (the field tier serves only the IPv4 five-tuple).
	packetDims fivetuple.DimSet

	// Update plane. packetPending records the rule mutations applied to this
	// (unpublished) snapshot since it was cloned; syncPacket drains it —
	// through the engine's delta ops when it is incremental and the policy
	// allows, through a full rebuild otherwise. packetDeltas counts the
	// delta ops the current packet structure has absorbed since its last
	// full build (the debt the RebuildAfterDeltas policy bounds); it is
	// carried across clones and reset by every rebuild.
	packetPending []packetDelta
	packetDeltas  int
}

// activeEngineName returns the registry name of the engine answering this
// snapshot's lookups: the whole-packet engine when that tier is selected,
// the IP-segment field engine otherwise.
func (s *snapshot) activeEngineName() string {
	if s.packetName != "" {
		return s.packetName
	}
	return s.engineName
}

// packetDelta is one pending rule mutation awaiting packet-tier sync.
type packetDelta struct {
	delete bool
	rule   fivetuple.Rule
}

// newSnapshot builds an empty data path for the given engine selection:
// every engine, label table and the rule filter, with fresh shared level-2
// blocks.
func newSnapshot(cfg *Config, engineName string, alg memory.AlgSelect) (*snapshot, error) {
	s := &snapshot{
		engineName: engineName,
		alg:        alg,
		labels:     label.NewBank(),
		fieldUses:  make(map[label.Dimension]map[string]*fieldUse, label.NumDimensions),
		engines:    make(map[label.Dimension]engine.FieldEngine, label.NumDimensions),
		sharedL2:   make(map[label.Dimension]*memory.SharedBlock, len(ipSegmentDims)),
	}
	for _, d := range label.Dimensions() {
		s.fieldUses[d] = make(map[string]*fieldUse)
	}
	for _, d := range ipSegmentDims {
		block := memory.NewBlock(fmt.Sprintf("shared-l2/%s", d), DefaultMBTEntryBits, cfg.MBTLevel2Entries)
		s.sharedL2[d] = memory.NewSharedBlockOwner(block, engineName)
		eng, err := s.buildEngine(cfg, d)
		if err != nil {
			return nil, err
		}
		s.engines[d] = eng
	}
	for _, d := range []label.Dimension{label.DimSrcPort, label.DimDstPort, label.DimProtocol} {
		eng, err := s.buildEngine(cfg, d)
		if err != nil {
			return nil, err
		}
		s.engines[d] = eng
	}
	s.filter = newRuleFilter(cfg.RuleFilterAddressBits, cfg.RuleCapacityFor(engineName), cfg.RuleEntryBits)
	return s, nil
}

// buildEngine constructs a fresh engine for one dimension of this snapshot's
// engine selection.
func (s *snapshot) buildEngine(cfg *Config, d label.Dimension) (engine.FieldEngine, error) {
	switch d {
	case label.DimSrcIPHigh, label.DimSrcIPLow, label.DimDstIPHigh, label.DimDstIPLow:
		eng, err := engine.New(s.engineName, engine.Spec{
			KeyBits:   16,
			LabelBits: d.Bits(),
			SharedL2:  s.sharedL2[d],
		})
		if err != nil {
			return nil, fmt.Errorf("core: building %s engine for %s: %w", s.engineName, d, err)
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

// clone duplicates the snapshot's mutable state so the copy can absorb an
// update while readers keep traversing the original. Engines implementing
// engine.Cloner are cloned structurally; any other engine is rebuilt fresh
// and re-programmed by replaying the installed rules of its dimension — the
// rebuild hook for third-party engines without a Clone.
func (s *snapshot) clone(cfg *Config) (*snapshot, error) {
	c := &snapshot{
		engineName: s.engineName,
		alg:        s.alg,
		labels:     s.labels.Clone(),
		fieldUses:  make(map[label.Dimension]map[string]*fieldUse, len(s.fieldUses)),
		engines:    make(map[label.Dimension]engine.FieldEngine, len(s.engines)),
		sharedL2:   s.sharedL2,
		filter:     s.filter.clone(),
		installed:  append([]installedRule(nil), s.installed...),
	}
	for d, uses := range s.fieldUses {
		m := make(map[string]*fieldUse, len(uses))
		for key, use := range uses {
			m[key] = use.clone()
		}
		c.fieldUses[d] = m
	}
	for d, eng := range s.engines {
		if cl, ok := eng.(engine.Cloner); ok {
			c.engines[d] = cl.Clone()
			continue
		}
		rebuilt, err := c.rebuildEngine(cfg, d)
		if err != nil {
			return nil, fmt.Errorf("core: cloning snapshot: %w", err)
		}
		c.engines[d] = rebuilt
	}
	c.packetName = s.packetName
	c.packetDims = s.packetDims
	c.packetRules = s.packetRules
	c.packetPending = append([]packetDelta(nil), s.packetPending...)
	c.packetDeltas = s.packetDeltas
	if s.packet != nil {
		// The clone shares the built structure; a rebuild after a rule change
		// replaces only the clone's handle, and a delta update copy-on-writes
		// inside the engine — never the published one either way.
		c.packet = s.packet.Clone()
	}
	return c, nil
}

// publishSync reports how syncPacket brought the packet tier in step with
// the installed rules: how many pending mutations were delta-applied, or
// whether the precomputed structure was rebuilt in full.
type publishSync struct {
	deltas  int
	rebuilt bool
}

// syncPacket brings the whole-packet engine in sync with the installed rules
// before a mutated snapshot is published. When the engine is incremental and
// the update policy allows, the pending mutations are delta-applied — the
// flat-latency path SDN flow-mod churn rides; otherwise the structure is
// rebuilt from scratch. The policy forces the amortising rebuild in two
// cases: the structure's delta debt would reach Config.RebuildAfterDeltas,
// or the applied deltas push the engine's degradation past
// Config.DegradationThreshold. A build failure (e.g. an RFC cross-product
// explosion) surfaces as the update's error and nothing is published.
func (s *snapshot) syncPacket(cfg *Config) (publishSync, error) {
	if s.packetName == "" {
		s.packet, s.packetRules = nil, nil
		s.packetPending, s.packetDeltas = nil, 0
		return publishSync{}, nil
	}
	if s.packet != nil && len(s.packetPending) == 0 {
		return publishSync{}, nil
	}
	if s.packet != nil {
		if inc, ok := s.packet.(engine.IncrementalPacketEngine); ok && s.deltaBudgetAllows(cfg) {
			if applied, ok := s.applyPacketDeltas(cfg, inc); ok {
				return publishSync{deltas: applied}, nil
			}
			// The delta path declined (an op failed midway, or the applied
			// deltas tripped the degradation threshold); the full rebuild
			// below repairs whatever state the engine is in.
		}
	}
	if s.packet == nil {
		eng, err := engine.NewPacket(s.packetName, engine.Spec{})
		if err != nil {
			return publishSync{}, err
		}
		s.packet = eng
	}
	// The Table I structures resolve ties by table order, so hand them the
	// rules best-first; LookupPacket indices then resolve through this slice.
	rules := s.installedRules()
	sort.SliceStable(rules, func(i, j int) bool { return rules[i].Priority < rules[j].Priority })
	if err := s.packet.Install(rules); err != nil {
		return publishSync{}, fmt.Errorf("core: building %s packet engine over %d rules: %w", s.packetName, len(rules), err)
	}
	s.packetRules = rules
	s.packetPending = nil
	s.packetDeltas = 0
	return publishSync{rebuilt: true}, nil
}

// deltaBudgetAllows applies the amortisation bound: a publish whose pending
// mutations would push the structure's delta debt to RebuildAfterDeltas (or
// past it) must rebuild instead.
func (s *snapshot) deltaBudgetAllows(cfg *Config) bool {
	k := cfg.rebuildAfterDeltas()
	return k <= 0 || s.packetDeltas+len(s.packetPending) < k
}

// applyPacketDeltas drains the pending mutations through the engine's delta
// ops, keeping packetRules in step so LookupPacket indices keep resolving.
// Insert positions are the stable upper bound of the rule's priority —
// exactly where the rebuild path's stable sort would place a rule appended
// to the installation order — so the delta-updated and rebuilt structures
// answer in the same rule order. ok is false when an op failed or the
// applied deltas tripped the degradation threshold; the caller then
// rebuilds.
func (s *snapshot) applyPacketDeltas(cfg *Config, inc engine.IncrementalPacketEngine) (applied int, ok bool) {
	// Copy-on-write: packetRules is shared with the published predecessor.
	rules := append([]fivetuple.Rule(nil), s.packetRules...)
	for _, op := range s.packetPending {
		if op.delete {
			idx := packetRuleIndex(rules, op.rule)
			if idx < 0 {
				return 0, false
			}
			if err := inc.DeleteRule(op.rule, idx); err != nil {
				return 0, false
			}
			rules = append(rules[:idx], rules[idx+1:]...)
		} else {
			idx := sort.Search(len(rules), func(i int) bool { return rules[i].Priority > op.rule.Priority })
			if err := inc.InsertRule(op.rule, idx); err != nil {
				return 0, false
			}
			rules = append(rules, fivetuple.Rule{})
			copy(rules[idx+1:], rules[idx:])
			rules[idx] = op.rule
		}
	}
	if inc.UpdateCost().Degradation >= cfg.degradationThreshold() {
		// The deltas themselves tripped the degradation bound: amortise now,
		// in the same publish, rather than serving a degraded structure.
		return 0, false
	}
	applied = len(s.packetPending)
	s.packetRules = rules
	s.packetPending = nil
	s.packetDeltas += applied
	return applied, true
}

// packetRuleIndex locates a rule in the best-first packet order by its field
// matches and priority — the same identity findInstalled uses. Identity goes
// through Rule.SameMatch so every dimension participates: comparing only the
// classic five fields would let a delete land on a rule differing in an
// IPv6/VLAN/flag match. The slice is priority-sorted, so the scan is bounded
// to the equal-priority run.
func packetRuleIndex(rules []fivetuple.Rule, r fivetuple.Rule) int {
	lo := sort.Search(len(rules), func(i int) bool { return rules[i].Priority >= r.Priority })
	for i := lo; i < len(rules) && rules[i].Priority == r.Priority; i++ {
		if rules[i].SameMatch(r) {
			return i
		}
	}
	return -1
}

// rebuildEngine is the clone fallback for engines without a Clone hook: a
// fresh engine is built and the dimension's field values are re-installed by
// replaying the installed rules, exactly as the controller re-downloads the
// memory image after an engine switch.
func (s *snapshot) rebuildEngine(cfg *Config, d label.Dimension) (engine.FieldEngine, error) {
	eng, err := s.buildEngine(cfg, d)
	if err != nil {
		return nil, err
	}
	for _, ir := range s.installed {
		key := fieldValueKey(d, ir.rule)
		lbl, ok := s.labels.Table(d).Lookup(key)
		if !ok {
			return nil, fmt.Errorf("core: rebuilding %s: field value %q is not labelled", d, key)
		}
		// Insert keeps the better priority for an existing (value, label)
		// pair, so replaying every rule converges to the best priority per
		// value — the HPML invariant.
		if _, err := eng.Insert(fieldValue(d, ir.rule), lbl, ir.rule.Priority); err != nil {
			return nil, fmt.Errorf("core: rebuilding %s: %w", d, err)
		}
	}
	return eng, nil
}

// prepare forces every deferred engine-side build (engine.Preparer) so that
// a published snapshot never mutates itself inside Lookup, and resolves the
// serving-path caches (packetDims, prefixes) that must not be recomputed per
// packet.
func (s *snapshot) prepare(cfg *Config) {
	s.packetDims = 0
	s.prefixes = prefixSet{}
	if s.packetName != "" {
		s.packetDims = engine.Dims(s.packetName)
	} else if cfg.CombineMode != CombineHPML {
		s.prefixes = newPrefixSet(s.installed)
	}
	for _, eng := range s.engines {
		if p, ok := eng.(engine.Preparer); ok {
			p.Prepare()
		}
	}
}

// installedRules returns a copy of the installed rules in installation
// order.
func (s *snapshot) installedRules() []fivetuple.Rule {
	out := make([]fivetuple.Rule, len(s.installed))
	for i, ir := range s.installed {
		out[i] = ir.rule
	}
	return out
}

// installFieldValue writes a newly labelled field value into the dimension's
// lookup engine. It returns the number of engine memory writes.
func (s *snapshot) installFieldValue(d label.Dimension, r fivetuple.Rule, lbl label.Label, priority int) (int, error) {
	return s.engines[d].Insert(fieldValue(d, r), lbl, priority)
}

// removeFieldValue deletes a field value from the dimension's engine when
// its last rule is gone.
func (s *snapshot) removeFieldValue(d label.Dimension, r fivetuple.Rule, lbl label.Label) (int, error) {
	return s.engines[d].Remove(fieldValue(d, r), lbl)
}

// reprioritiseFieldValue re-installs a field value at a new best priority
// after the rule that defined the old best priority was deleted. Engines
// whose lists are ordered positionally (ports, protocol) treat this as a
// no-op.
func (s *snapshot) reprioritiseFieldValue(d label.Dimension, r fivetuple.Rule, lbl label.Label, newBest int) error {
	_, err := s.engines[d].Reprioritise(fieldValue(d, r), lbl, newBest)
	return err
}

// findInstalled locates an installed rule with the same field matches and
// priority. Identity goes through Rule.SameMatch so every dimension —
// including the IPv6/VLAN/flag extensions — participates in the comparison.
func (s *snapshot) findInstalled(r fivetuple.Rule) int {
	for i, ir := range s.installed {
		if ir.rule.Priority == r.Priority && ir.rule.SameMatch(r) {
			return i
		}
	}
	return -1
}

// requiredDims returns the union of extension dimensions required by the
// installed rules — what any engine serving this snapshot must cover.
func (s *snapshot) requiredDims() fivetuple.DimSet {
	var d fivetuple.DimSet
	for _, ir := range s.installed {
		d |= ir.rule.Dims()
	}
	return d
}
