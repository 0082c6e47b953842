// Package fieldtier is the paper's classifier (§III, §IV) as one engine: a
// single-field lookup engine per header dimension — four IP-segment engines
// of the algorithm the IPalg_s signal selects, two port register banks and
// the protocol LUT — the label tables they answer in, and the Rule Filter
// (a hash table addressed by the hardware hash of the 68-bit label
// combination key). Lookups follow the four pipelined phases of Fig. 3;
// updates follow the label-counted inserts and deletes of Fig. 4.
//
// Engine implements engine.IncrementalPacketEngine, so the classifier in
// internal/core serves and updates it as it does a whole-packet engine. It
// also counts a lookup the way the paper's hardware model does (Counts) and
// breaks its memory down by block family (Memory); the classifier reads
// both through an optional interface of its own.
package fieldtier

import (
	"fmt"

	"sdnpc/internal/engine"
	"sdnpc/internal/fivetuple"
	"sdnpc/internal/label"
)

// Architecture geometry: what the field engine enforces. An 8K-rule filter
// in the MBT configuration grows to ~12K rules in the BST configuration
// (Table VI, Fig. 5), and the protocol label is 2 bits wide (§IV.C.1). The
// rest of the synthesised design's provisioning (the MBT level-2 budget, the
// Labels memory) is the hardware model's alone (internal/bench/model.go).
const (
	// Multi-Bit Trie provisioning per 16-bit IP segment: the three levels use
	// 5-, 5- and 6-bit strides; level 1 is a single 32-entry node and level 3
	// is provisioned with a fixed node budget. Levels 1 and 3 are what the
	// BST configuration frees for rule storage.
	DefaultMBTLevel1Entries = 32
	DefaultMBTLevel3Entries = 3288
	DefaultMBTEntryBits     = 32

	// DefaultRuleFilterAddressBits gives an 8192-slot Rule Filter (13-bit
	// addresses produced by the hash unit).
	DefaultRuleFilterAddressBits = 13
	// DefaultRuleEntryBits is the width of one Rule Filter entry: the 68-bit
	// combination key, a 14-bit priority, a 3-bit action, a 16-bit action
	// argument and a valid flag, padded to a power-of-two word.
	DefaultRuleEntryBits = 128

	// DefaultProtocolLabelBits is the protocol label width (§IV.C.1).
	DefaultProtocolLabelBits = 2
)

// Rule capacity (Table VI, Fig. 5). RuleFilterSlots is the hash-addressed
// base block, the capacity of the MBT configuration. ExtraRuleCapacityBST is
// how many more entries fit in the MBT blocks freed by selecting the BST —
// levels 1 and 3 of the four IP-segment tries; level 2 keeps the BST nodes
// ("the rest of the memory determined for MBT can be used to collect more
// rules").
const (
	RuleFilterSlots      = 1 << DefaultRuleFilterAddressBits
	ExtraRuleCapacityBST = 4 * (DefaultMBTLevel1Entries + DefaultMBTLevel3Entries) * DefaultMBTEntryBits / DefaultRuleEntryBits
)

// RuleCapacityFor returns the number of Rule Filter slots the field engine
// provisions under the named IP-segment engine (Table VI: 8K with the MBT,
// ~12K with the BST). Engines whose node data resides entirely in the shared
// level-2 blocks free the remaining MBT blocks for rule storage.
func RuleCapacityFor(name string) int {
	if def, ok := engine.Get(name); ok && def.SharesLevel2 {
		return RuleFilterSlots + ExtraRuleCapacityBST
	}
	return RuleFilterSlots
}

// ipSegments is the number of IP-segment dimensions, which lead
// label.Dimensions().
const ipSegments = 4

// NewFieldEngine builds the engine serving dimension d under the named
// IP-segment engine: that engine with 13-bit labels for the four IP
// segments, a bank of portRegisters registers for the two ports and the
// 2-bit protocol LUT.
func NewFieldEngine(ipEngine string, d label.Dimension, portRegisters int) (engine.FieldEngine, error) {
	name, spec := ipEngine, engine.Spec{KeyBits: 16, LabelBits: d.Bits()}
	switch d {
	case label.DimSrcPort, label.DimDstPort:
		name, spec.Registers = "portreg", portRegisters
	case label.DimProtocol:
		name, spec = "lut", engine.Spec{KeyBits: 8, LabelBits: DefaultProtocolLabelBits}
	}
	eng, err := engine.New(name, spec)
	if err != nil {
		return nil, fmt.Errorf("fieldtier: building %s engine for %s: %w", name, d, err)
	}
	return eng, nil
}

// Engine is the paper's classifier: seven field engines, the label bank and
// the Rule Filter. Its rule ids are Rule Filter slot indices, and Verdict
// reads the slot; the engine keeps no rule. Unlike the whole-packet engines
// it does not place equal-priority rules in installation order: a header
// matching two rules of one priority may be answered with either (a tie
// the classifier's contract does not yet fix).
//
// Lookups answer for the rules as of the last Install or Prepare: Prepare
// rebuilds the prefix set the combination walk prunes with.
type Engine struct {
	name      string
	ports     int
	maxProbes int

	// labels is the controller's bookkeeping: which label every field value
	// carries and which rule priorities use it. It is the writer's state, not
	// the data path's — one bank per Install, shared by every clone, reached
	// only under the classifier's writer lock and never by a lookup or
	// Memory (which reads labelTableBits). It describes the newest clone: an
	// abandoned update puts it back by undoing its deltas on the clone.
	labels *label.Bank[engine.Value]
	// labelTableBits is labels.StorageBits() as of Prepare.
	labelTableBits int

	// engines holds the per-dimension field lookup engines, indexed by
	// Dimension (a dense 1-based enum; entry 0 is unused).
	engines [label.NumDimensions + 1]engine.FieldEngine

	filter *ruleFilter

	// prefixes is the set of label prefixes the Rule Filter's keys have,
	// which lets the combination walk skip label tuples no rule uses.
	// Prepare rebuilds it; a clone shares it until then.
	prefixes prefixSet
}

// New builds an empty field engine for the named IP-segment engine, with
// portRegisters registers per port dimension. maxProbes bounds the Rule
// Filter slots LookupCounted may read for one header and caps the modelled
// cross-product size it reports.
func New(name string, portRegisters, maxProbes int) (*Engine, error) {
	e := &Engine{name: name, ports: portRegisters, maxProbes: maxProbes}
	if err := e.Install(nil); err != nil {
		return nil, err
	}
	return e, nil
}

// Install rebuilds the engine over the rules — fresh field engines, label
// bank and Rule Filter, programmed one rule at a time in the order given —
// and prepares it. A failed Install leaves the engine as it was, bank
// included.
func (e *Engine) Install(rules []fivetuple.Rule) error {
	f := &Engine{name: e.name, ports: e.ports, maxProbes: e.maxProbes,
		labels: label.NewBank[engine.Value](), filter: newRuleFilter(RuleCapacityFor(e.name))}
	for _, d := range label.Dimensions() {
		eng, err := NewFieldEngine(e.name, d, e.ports)
		if err != nil {
			return err
		}
		f.engines[d] = eng
	}
	for _, r := range rules {
		if _, err := f.InsertRule(r); err != nil {
			return fmt.Errorf("fieldtier: inserting rule %s: %w", r, err)
		}
	}
	f.Prepare()
	*e = *f
	return nil
}

// Clone returns an independent copy that costs what the next writes touch,
// not what the engine holds: the Rule Filter shares its chunks, every field
// engine shares whatever its Clone shares (the tries every node), and the
// label bank is the same bank.
func (e *Engine) Clone() engine.PacketEngine {
	c := *e
	c.filter = e.filter.clone()
	for _, d := range label.Dimensions() {
		c.engines[d] = e.engines[d].Clone()
	}
	return &c
}

// Prepare forces every deferred field-engine build (engine.Preparer),
// rebuilds the prefix set from the Rule Filter's live keys and stamps the
// label bank's footprint, so that a published engine is only read.
func (e *Engine) Prepare() {
	e.labelTableBits = e.labels.StorageBits()
	e.prefixes = newPrefixSet(e.filter)
	for _, d := range label.Dimensions() {
		if p, ok := e.engines[d].(engine.Preparer); ok {
			p.Prepare()
		}
	}
}

// Verdict returns the verdict of the rule Rule Filter slot id holds.
func (e *Engine) Verdict(id int) fivetuple.Verdict { return e.filter.slots.At(id).verdict() }

// Cost returns the modelled cost of the lookup stage (Fig. 3 phase 2): the
// element-wise maximum over the seven field engines, which the modelled
// hardware runs in parallel.
func (e *Engine) Cost() engine.CostModel {
	var cost engine.CostModel
	for _, d := range label.Dimensions() {
		c := e.engines[d].Cost()
		cost.LookupCycles = max(cost.LookupCycles, c.LookupCycles)
		cost.InitiationInterval = max(cost.InitiationInterval, c.InitiationInterval)
		cost.WorstCaseAccesses = max(cost.WorstCaseAccesses, c.WorstCaseAccesses)
	}
	return cost
}

// Footprint returns the algorithm blocks' node storage and the IP-segment
// engines' label lists; Memory breaks it down.
func (e *Engine) Footprint() engine.Footprint {
	m := e.Memory()
	return engine.Footprint{NodeBits: m.IPEngineUsedBits + m.ProtocolLUTBits + m.PortRegisterBits, LabelListBits: m.LabelMemoryUsedBits}
}

// Memory is the field engine's part of the classifier's block-memory
// breakdown (Table VI) by the block families of §III.D.
type Memory struct {
	// IPEngine is the registry name of the field engine serving the
	// IP-segment dimensions ("" when a whole-packet engine serves).
	IPEngine string

	// IP algorithm blocks: the node storage of the IP-segment engine
	// whatever its name (the "Memory Space Required" column of Table VI).
	IPEngineUsedBits int

	// The other algorithm blocks: the protocol LUT and the port registers.
	ProtocolLUTBits  int
	PortRegisterBits int

	// Labels memory block: the IP-segment engines' label lists and the
	// label tables.
	LabelMemoryUsedBits int
	LabelTableBits      int

	// Rule Filter block, and its slots: the rule capacity (Table VI).
	RuleFilterUsedBits int
	RuleCapacity       int
}

// Memory returns the engine's memory breakdown. Only the selected engine's
// node data is resident in the (shared) memory blocks, so usage is reported
// for that engine alone.
func (e *Engine) Memory() Memory {
	m := Memory{
		IPEngine:           e.name,
		ProtocolLUTBits:    e.engines[label.DimProtocol].Footprint().NodeBits,
		PortRegisterBits:   e.engines[label.DimSrcPort].Footprint().NodeBits + e.engines[label.DimDstPort].Footprint().NodeBits,
		LabelTableBits:     e.labelTableBits,
		RuleFilterUsedBits: e.filter.usedBits(),
		RuleCapacity:       e.filter.slots.Len(),
	}
	for _, d := range label.Dimensions()[:ipSegments] {
		fp := e.engines[d].Footprint()
		m.IPEngineUsedBits += fp.NodeBits
		m.LabelMemoryUsedBits += fp.LabelListBits
	}
	return m
}

// Labels returns the label bank: the writer's bookkeeping, shared with every
// clone, to be read only while no update runs.
func (e *Engine) Labels() *label.Bank[engine.Value] { return e.labels }

// Field returns the engine serving dimension d.
func (e *Engine) Field(d label.Dimension) engine.FieldEngine { return e.engines[d] }

// Entries calls yield with the id, combination key and verdict of every rule
// the Rule Filter holds, in slot order.
func (e *Engine) Entries(yield func(id int, key label.CombinationKey, v fivetuple.Verdict)) {
	e.filter.live(func(slot int, entry *ruleEntry) { yield(slot, entry.key(), entry.verdict()) })
}
