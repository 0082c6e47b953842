package core

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"sdnpc/internal/engine"
	"sdnpc/internal/fivetuple"
	"sdnpc/internal/label"
)

// ipSegmentDims lists the four IP-segment label dimensions in a fixed order.
var ipSegmentDims = []label.Dimension{
	label.DimSrcIPHigh, label.DimSrcIPLow, label.DimDstIPHigh, label.DimDstIPLow,
}

// segValue is the 16-bit segment slice of a rule's IP prefix in one segment
// dimension.
type segValue struct {
	value uint16
	bits  uint8
}

func (s segValue) key() string { return fmt.Sprintf("%04x/%d", s.value, s.bits) }

// fieldUse tracks which rule priorities currently use a labelled field value
// in one dimension, so that the label list order can be maintained when
// rules are added and removed (§IV.A: "the lists of labels are reorganized
// according to the priority rule").
type fieldUse struct {
	counts map[int]int
	best   int
}

func newFieldUse() *fieldUse {
	return &fieldUse{counts: make(map[int]int), best: int(^uint(0) >> 1)}
}

func (u *fieldUse) add(priority int) {
	u.counts[priority]++
	if priority < u.best {
		u.best = priority
	}
}

// remove deletes one use at the given priority and returns the new best
// priority together with whether the best changed.
func (u *fieldUse) remove(priority int) (newBest int, changed bool) {
	u.counts[priority]--
	if u.counts[priority] <= 0 {
		delete(u.counts, priority)
	}
	if priority != u.best {
		return u.best, false
	}
	newBest = int(^uint(0) >> 1)
	for p := range u.counts {
		if p < newBest {
			newBest = p
		}
	}
	changed = newBest != u.best
	u.best = newBest
	return newBest, changed
}

func (u *fieldUse) empty() bool { return len(u.counts) == 0 }

func (u *fieldUse) clone() *fieldUse {
	c := &fieldUse{counts: make(map[int]int, len(u.counts)), best: u.best}
	for p, n := range u.counts {
		c.counts[p] = n
	}
	return c
}

// installedRule is the software shadow of one hardware rule: what the
// controller needs to re-programme the data plane after an algorithm switch
// and to undo an installation.
type installedRule struct {
	rule fivetuple.Rule
	key  label.CombinationKey
	// ext marks an extended rule (Rule.Dims() != 0): it bypassed the field
	// tier — no labels, no filter entry, key is zero — and exists only in
	// this shadow and the whole-packet engine.
	ext bool
}

// Classifier is one instance of the configurable packet classification
// architecture.
//
// Every header dimension is served by one pluggable engine.FieldEngine,
// built through the engine registry: the four IP-segment dimensions run the
// engine named by the IPEngine configuration (switchable at run time via
// SelectIPEngine — the generalised IPalg_s signal), the port dimensions run
// the register bank and the protocol dimension runs the LUT. The classifier
// itself never dispatches on an algorithm name; every per-dimension call
// goes through the FieldEngine interface.
//
// Classifier is safe for concurrent use. The serving path is RCU-style: the
// complete data path lives in an immutable snapshot behind an atomic
// pointer, so any number of goroutines can call Lookup and LookupBatch
// lock-free. Updates (InsertRule, DeleteRule, InstallRuleSet,
// SelectIPEngine) serialise on an internal mutex, build the next snapshot
// off to the side — cloning the current one and mutating the private copy —
// and publish it with a single atomic swap. A lookup that raced an update
// returns a result consistent with either the old or the new rule set,
// never a half-applied mixture; this mirrors the modelled hardware, where
// the controller re-downloads memory images and flips them in atomically.
type Classifier struct {
	cfg Config

	// mu serialises writers; readers never take it.
	mu sync.Mutex

	// snap is the published snapshot read by the lock-free lookup path.
	snap atomic.Pointer[snapshot]

	// gen numbers published snapshots. publish assigns the next value to
	// every snapshot it stores, so two published snapshots never share a
	// generation and microflow-cache entries can be keyed by it.
	gen atomic.Uint64

	// lanes holds the serving lanes — the optional microflow caches in
	// front of both engine tiers and the lookup counters, one per processor.
	lanes *lanes

	// sampler captures a ring of recently served headers for the advisor's
	// shadow benches (nil when Config.SampleHeaders is 0 — a nil sampler is
	// inert, so the serving path offers unconditionally).
	sampler *headerSampler

	// stats is the update-plane collector; lookups account to their lane.
	stats statsCollector
}

// New creates a classifier with the given configuration.
func New(cfg Config) (*Classifier, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	name := cfg.IPEngineName()
	def, ok := engine.Get(name)
	if !ok {
		return nil, fmt.Errorf("core: unknown field engine %q", name)
	}
	c := &Classifier{cfg: cfg}
	c.lanes = newLanes(&c.cfg)
	if cfg.SampleHeaders > 0 {
		c.sampler = newHeaderSampler(cfg.SampleHeaders)
	}
	s, err := newSnapshot(&c.cfg, name, def.Legacy)
	if err != nil {
		return nil, err
	}
	if cfg.PacketEngine != "" {
		s.packetName = cfg.PacketEngine
		if _, err := s.syncPacket(&c.cfg); err != nil {
			return nil, err
		}
	}
	c.publish(s)
	return c, nil
}

// MustNew is like New but panics on error.
func MustNew(cfg Config) *Classifier {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// view returns the published snapshot. The returned snapshot is immutable
// and remains valid even if an update publishes a successor while the caller
// is still reading it.
func (c *Classifier) view() *snapshot { return c.snap.Load() }

// publish prepares a snapshot, stamps it with the next generation and makes
// it the one served to readers. The fresh generation is what retires every
// microflow-cache entry filled under predecessors: entries are only served
// to readers of the generation that filled them, so the swap invalidates the
// cache in O(1) with no flush. Every lane serves the snapshot from the
// moment of the swap.
func (c *Classifier) publish(s *snapshot) {
	s.prepare(&c.cfg)
	s.gen = c.gen.Add(1)
	c.snap.Store(s)
}

// Generation returns the generation of the published snapshot.
func (c *Classifier) Generation() uint64 { return c.view().gen }

// CacheEnabled reports whether the microflow cache is configured (one per
// lane).
func (c *Classifier) CacheEnabled() bool { return c.cfg.CacheCapacity > 0 }

// Config returns the classifier configuration. It takes the writer mutex so
// the copy is consistent with any concurrent SetUpdatePolicy.
func (c *Classifier) Config() Config {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cfg
}

// SetUpdatePolicy adjusts the packet tier's delta-vs-rebuild policy at run
// time — the WithUpdatePolicy knobs, applied to a live classifier. The new
// bounds govern from the next publish; in-flight publishes complete under
// the old policy. This is one of the two atomic apply paths the advisor's
// recommendations go through (the other is SelectEngine). The zero/negative
// conventions of Config.RebuildAfterDeltas and Config.DegradationThreshold
// apply unchanged.
func (c *Classifier) SetUpdatePolicy(rebuildAfterDeltas int, degradationThreshold float64) error {
	if math.IsNaN(degradationThreshold) {
		return fmt.Errorf("core: degradation threshold must not be NaN")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cfg.RebuildAfterDeltas = rebuildAfterDeltas
	c.cfg.DegradationThreshold = degradationThreshold
	return nil
}

// IPEngineName returns the registry name of the engine currently serving the
// IP-segment dimensions (programmed even while the packet tier serves).
func (c *Classifier) IPEngineName() string { return c.view().engineName }

// PacketEngineName returns the registry name of the active whole-packet
// engine, or "" when the field tier is serving.
func (c *Classifier) PacketEngineName() string { return c.view().packetName }

// ActiveEngineName returns the name of the engine actually answering
// lookups: the whole-packet engine when one is selected, the IP-segment
// field engine otherwise.
func (c *Classifier) ActiveEngineName() string {
	return c.view().activeEngineName()
}

// RuleCount returns the number of installed rules.
func (c *Classifier) RuleCount() int { return len(c.view().installed) }

// RuleCapacity returns the rule capacity under the engine actually answering
// lookups: capacity follows the serving tier, so a packet-tier selection
// reports the packet engine's capacity even though the field tier stays
// programmed underneath.
func (c *Classifier) RuleCapacity() int {
	return c.cfg.RuleCapacityFor(c.view().activeEngineName())
}

// InstalledRules returns a copy of the installed rules in installation
// order.
func (c *Classifier) InstalledRules() []fivetuple.Rule {
	return c.view().installedRules()
}

// SelectIPEngine drives the generalised IPalg_s signal (§III.A): it builds a
// fresh data path around the named registered engine — new engines, new
// shared memory blocks (Fig. 5), a re-provisioned rule filter — replays the
// installed rules onto it, and atomically swaps it in, exactly as the
// software controller would re-download the memory images after a
// configuration change. Lookups racing the switch are served by the old
// data path until the swap; none ever observes a half-programmed engine.
// Selecting the already-active engine is a no-op.
func (c *Classifier) SelectIPEngine(name string) error {
	def, ok := engine.Get(name)
	if !ok {
		return fmt.Errorf("core: unknown field engine %q (registered: %v)", name, engine.IPEngineNames())
	}
	if !def.IPCapable {
		return fmt.Errorf("core: engine %q cannot serve the IP-segment dimensions", name)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.selectIPEngineLocked(name, def, false)
}

// selectIPEngineLocked performs a field-engine switch (optionally dropping
// an active packet tier in the same swap) with c.mu held. Everything is
// staged on an unpublished snapshot, so any failure leaves the serving
// state exactly as it was.
func (c *Classifier) selectIPEngineLocked(name string, def engine.Definition, dropPacket bool) error {
	current := c.view()
	packetName := current.packetName
	if dropPacket {
		packetName = ""
	}
	// An engine switch must keep every installed rule servable: extended
	// rules live only in the packet tier, so the switch target must still
	// cover their dimensions.
	if need := current.requiredDims(); need != 0 {
		if packetName == "" {
			return fmt.Errorf("%w: installed rules require dimensions %s but the %s field tier serves only the IPv4 five-tuple",
				ErrDimsUnsupported, need, name)
		}
		if have := engine.Dims(packetName); !have.Covers(need) {
			return fmt.Errorf("%w: installed rules require dimensions %s but engine %q declares %s",
				ErrDimsUnsupported, need, packetName, have)
		}
	}
	if name == current.engineName {
		if packetName == current.packetName {
			return nil
		}
		// Same field engine; only the packet tier is being dropped.
		next, err := current.clone(&c.cfg)
		if err != nil {
			return err
		}
		next.packetName = packetName
		if _, err := next.syncPacket(&c.cfg); err != nil {
			return err
		}
		c.publish(next)
		return nil
	}
	if len(current.installed) > c.cfg.RuleCapacityFor(name) {
		return fmt.Errorf("core: %d installed rules exceed the %d-rule capacity of the %s configuration",
			len(current.installed), c.cfg.RuleCapacityFor(name), name)
	}
	next, err := newSnapshot(&c.cfg, name, def.Legacy)
	if err != nil {
		return err
	}
	next.packetName = packetName
	for _, r := range current.installedRules() {
		if _, err := next.insertRule(&c.cfg, r); err != nil {
			return fmt.Errorf("core: re-programming after engine switch: %w", err)
		}
	}
	// A surviving packet tier keeps serving from the same whole-packet
	// structure: the rule set is unchanged by the replay, so the built
	// structure is reused through a cheap Clone instead of recomputed. The
	// replay queued one pending mutation per rule; those are already
	// reflected in the reused structure, so they are dropped — along with
	// its carried delta debt, which the amortisation policy keeps bounding.
	if packetName != "" && packetName == current.packetName && current.packet != nil {
		next.packet = current.packet.Clone()
		next.packetRules = current.packetRules
		next.packetPending = nil
		next.packetDeltas = current.packetDeltas
	}
	if _, err := next.syncPacket(&c.cfg); err != nil {
		return err
	}
	c.publish(next)
	return nil
}

// SelectPacketEngine switches the classifier between engine tiers at run
// time. A non-empty name selects the registered whole-packet engine: the
// installed rules are compiled into its precomputed structure on a private
// snapshot and swapped in atomically, after which lookups bypass the
// per-field engines and the label combination entirely. The empty name
// returns to the field tier, which stayed programmed underneath. Lookups
// racing the switch are served by the old tier until the swap.
func (c *Classifier) SelectPacketEngine(name string) error {
	if name != "" {
		def, ok := engine.Get(name)
		if !ok || def.PacketFactory == nil {
			return fmt.Errorf("core: unknown packet engine %q (registered: %v)", name, engine.PacketEngineNames())
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	current := c.view()
	if current.packetName == name {
		return nil
	}
	// The target tier must cover every installed rule's dimensions —
	// extended rules cannot return to the field tier or move onto an engine
	// that declined their dimensions.
	if need := current.requiredDims(); need != 0 {
		if name == "" {
			return fmt.Errorf("%w: installed rules require dimensions %s but the field tier serves only the IPv4 five-tuple",
				ErrDimsUnsupported, need)
		}
		if have := engine.Dims(name); !have.Covers(need) {
			return fmt.Errorf("%w: installed rules require dimensions %s but engine %q declares %s",
				ErrDimsUnsupported, need, name, have)
		}
	}
	next, err := current.clone(&c.cfg)
	if err != nil {
		return err
	}
	next.packetName = name
	next.packet = nil
	next.packetRules = nil
	next.packetPending = nil
	next.packetDeltas = 0
	if _, err := next.syncPacket(&c.cfg); err != nil {
		return err
	}
	c.publish(next)
	return nil
}

// SelectEngine selects any registered serving engine by name, whichever
// tier it belongs to: a whole-packet engine name activates the packet tier,
// an IP-capable field engine name deactivates it and switches the
// IP-segment engines — as one atomic swap, so a failed switch never leaves
// the classifier serving a different engine than before the call. This is
// the engine selection the facade, the engine flags and the OpenFlow
// set-engine message resolve through.
func (c *Classifier) SelectEngine(name string) error {
	isPacket, ok := engine.Selectable(name)
	if !ok {
		return fmt.Errorf("core: unknown engine %q (selectable: %v)", name, engine.SelectableNames())
	}
	if isPacket {
		return c.SelectPacketEngine(name)
	}
	def, _ := engine.Get(name)
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.selectIPEngineLocked(name, def, true)
}

// segmentValues returns the four IP-segment slices of a rule.
func segmentValues(r fivetuple.Rule) map[label.Dimension]segValue {
	srcHi, srcHiBits := r.SrcPrefix.HighSegment()
	srcLo, srcLoBits := r.SrcPrefix.LowSegment()
	dstHi, dstHiBits := r.DstPrefix.HighSegment()
	dstLo, dstLoBits := r.DstPrefix.LowSegment()
	return map[label.Dimension]segValue{
		label.DimSrcIPHigh: {value: srcHi, bits: srcHiBits},
		label.DimSrcIPLow:  {value: srcLo, bits: srcLoBits},
		label.DimDstIPHigh: {value: dstHi, bits: dstHiBits},
		label.DimDstIPLow:  {value: dstLo, bits: dstLoBits},
	}
}

// fieldValueKey returns the canonical label-table key of a rule's field value
// in one dimension.
func fieldValueKey(d label.Dimension, r fivetuple.Rule) string {
	switch d {
	case label.DimSrcIPHigh, label.DimSrcIPLow, label.DimDstIPHigh, label.DimDstIPLow:
		return segmentValues(r)[d].key()
	case label.DimSrcPort:
		return r.SrcPort.String()
	case label.DimDstPort:
		return r.DstPort.String()
	case label.DimProtocol:
		if r.Protocol.IsWildcard() {
			return "*"
		}
		// Key on the full value/mask pair. Partially masked protocols never
		// reach the field tier (they are extended rules), but the key must
		// not collapse distinct matches onto one label regardless.
		return r.Protocol.String()
	default:
		return ""
	}
}

// fieldValue extracts the match condition of a rule in one dimension — the
// data handed to that dimension's engine. This is pure header-format
// extraction; which algorithm stores the value is decided by the engine
// registry, not here.
func fieldValue(d label.Dimension, r fivetuple.Rule) engine.Value {
	switch d {
	case label.DimSrcIPHigh, label.DimSrcIPLow, label.DimDstIPHigh, label.DimDstIPLow:
		seg := segmentValues(r)[d]
		return engine.Prefix(uint32(seg.value), seg.bits)
	case label.DimSrcPort:
		return engine.Range(uint32(r.SrcPort.Lo), uint32(r.SrcPort.Hi))
	case label.DimDstPort:
		return engine.Range(uint32(r.DstPort.Lo), uint32(r.DstPort.Hi))
	case label.DimProtocol:
		if r.Protocol.IsWildcard() {
			return engine.Wildcard()
		}
		return engine.Exact(uint32(r.Protocol.Value))
	default:
		return engine.Value{}
	}
}
