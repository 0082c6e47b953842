package engine

import (
	"fmt"
	"sort"

	"sdnpc/internal/fivetuple"
)

// PacketEngine is one pluggable whole-packet lookup engine: the second engine
// tier of the architecture, serving the full five-tuple in one structure
// instead of one FieldEngine per dimension.
//
// The multi-field baselines the paper compares against in Table I — full RFC,
// DCFL and HyperCuts — are engines of this tier. They answer a lookup in a
// handful of precomputed-table indexings (no per-field label lists, no HPML
// combination, no Rule Filter probe), trading precomputation memory and
// update cost for lookup speed; the FieldEngine tier makes the opposite
// trade. Both tiers share one name registry, so which tier serves a
// classifier remains data ("mbt" vs "rfc-full"), not control flow.
//
// Update model: the Table I structures are precomputed over the whole rule
// set, so the tier's update primitive is Install — a full rebuild. The
// classifier's clone-mutate-swap path calls Install on a private clone and
// publishes the finished snapshot, exactly as it does for field engines.
//
// Concurrency contract (read-only after build): once Install has returned,
// LookupPacket, Cost and Footprint must be safe to call from any number of
// goroutines concurrently — LookupPacket performs no writes to the engine;
// the access count is returned, never accumulated inside. Install requires
// external serialisation; the classifier only ever calls it on an
// unpublished snapshot's engine.
type PacketEngine interface {
	// Install (re)builds the engine over the rule set. Rules are ordered
	// best-first (ascending Priority value: index 0 is the highest-priority
	// rule) and
	// LookupPacket answers in terms of indices into this slice. The engine
	// may keep the slice as its own storage (linear and hypercuts do), so the
	// caller hands it over and must not modify it afterwards. Installing an
	// empty slice is valid and yields an engine that matches nothing. A
	// failed Install leaves the previously installed state serving.
	Install(rules []fivetuple.Rule) error
	// LookupPacket classifies one header: the index (into the installed
	// slice) of the highest-priority matching rule, whether any rule
	// matched, and the number of memory accesses performed.
	LookupPacket(h fivetuple.Header) (ruleIndex int, matched bool, accesses int)
	// Cost returns the engine's clock-cycle model under the installed rule
	// set (decision-tree engines derive it from the built tree).
	Cost() CostModel
	// Footprint returns the storage consumed by the precomputed structure.
	// Whole-packet engines do not use the Labels memory, so LabelListBits is
	// zero.
	Footprint() Footprint
	// Clone returns a handle sharing the immutable built structure such that
	// a later Install on either handle is never observable through the
	// other. This is what lets the classifier rebuild a cloned snapshot's
	// engine while readers keep traversing the published one.
	Clone() PacketEngine
}

// MultiMatchPacketEngine is implemented by packet engines that can enumerate
// every matching rule, not only the highest-priority one. It is required of
// engines whose registry definition declares DimMultiAction: the core's
// multi-action lookup (LookupAll) collects the ordered action chain of
// non-terminating rules through this interface.
type MultiMatchPacketEngine interface {
	PacketEngine
	// LookupPacketAll appends the indices (into the installed rule slice)
	// of every rule matching the header to dst, in ascending index order —
	// which is priority order, because Install receives rules best-first —
	// truncated after the first terminating (non-NonTerminating) match. It
	// returns the extended slice and the number of memory accesses
	// performed. The order and the cut are the engine's to keep, after any
	// number of delta ops too: the classifier turns the indices into the
	// verdict list as they come, without sorting or cutting them again.
	// Implementations must not allocate when dst has sufficient capacity,
	// so the zero-allocation serving guarantee extends to the multi-action
	// path.
	LookupPacketAll(h fivetuple.Header, dst []int) ([]int, int)
}

// PacketFactory builds one whole-packet engine instance.
type PacketFactory func(spec Spec) (PacketEngine, error)

// NewPacket builds a whole-packet engine instance by registered name.
func NewPacket(name string, spec Spec) (PacketEngine, error) {
	def, ok := Get(name)
	if !ok || def.PacketFactory == nil {
		return nil, fmt.Errorf("engine: unknown packet engine %q (registered: %v)", name, PacketEngineNames())
	}
	eng, err := def.PacketFactory(spec)
	if err != nil {
		return nil, fmt.Errorf("engine: building %q: %w", name, err)
	}
	return eng, nil
}

// PacketEngineNames returns the sorted names of the registered whole-packet
// engines — the second tier of the registry.
func PacketEngineNames() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]string, 0, len(registry))
	for name, def := range registry {
		if def.PacketFactory != nil {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// SelectableNames returns the sorted names of every engine a classifier can
// be switched to: the IP-capable field engines plus the whole-packet
// engines. These are the values the facade, the -ip-engine flag and the
// wire API's PUT …/engine accept.
func SelectableNames() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]string, 0, len(registry))
	for name, def := range registry {
		if def.IPCapable || def.PacketFactory != nil {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// Selectable reports whether the name is registered and selectable as a
// serving engine (IP-capable field engine or whole-packet engine), and which
// tier it belongs to.
func Selectable(name string) (isPacket bool, ok bool) {
	def, found := Get(name)
	if !found {
		return false, false
	}
	if def.PacketFactory != nil {
		return true, true
	}
	return false, def.IPCapable
}
