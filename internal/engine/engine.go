// Package engine defines the pluggable single-field lookup-engine API of the
// configurable classification architecture.
//
// The paper's headline claim is that the per-field lookup algorithm is a
// run-time-configurable *signal* (IPalg_s, §III.A, Fig. 5), not a property
// baked into the data path. This package makes that claim structural: every
// single-field lookup structure — the Multi-Bit Trie, the Binary Search
// Tree, the segment trie, the RFC-style equivalence table, the port register
// bank and the protocol LUT — implements one FieldEngine interface, and a
// registry maps engine names to factories so that algorithm selection is
// data ("mbt", "bst", "segtrie", "rfc"), not control flow.
//
// A FieldEngine serves one label dimension: it stores (field value, label,
// priority) triples and answers point lookups with the priority-ordered
// label list of every matching stored value, maintaining the HPML invariant
// of §IV.A. It also exposes the two models the evaluation depends on: the
// clock-cycle cost model of Fig. 3 (lookup latency and pipeline initiation
// interval) and the memory footprint split into algorithm-block node storage
// and Labels-memory storage (§III.D).
package engine

import (
	"errors"
	"fmt"

	"sdnpc/internal/fivetuple"
	"sdnpc/internal/label"
)

// Kind discriminates the flavours of match condition a field value can take.
type Kind uint8

// Match-condition kinds.
const (
	// KindPrefix is a value/length prefix match (IP segments).
	KindPrefix Kind = iota + 1
	// KindRange is an inclusive [Lo, Hi] range (transport ports).
	KindRange
	// KindExact is an exact-value match (protocol).
	KindExact
	// KindWildcard matches every key (wildcard protocol).
	KindWildcard
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindPrefix:
		return "prefix"
	case KindRange:
		return "range"
	case KindExact:
		return "exact"
	case KindWildcard:
		return "wildcard"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is one dimension's match condition, the unit a FieldEngine stores.
// Exactly the fields implied by Kind are meaningful.
type Value struct {
	Kind Kind
	// Value is the prefix or exact value.
	Value uint32
	// Bits is the number of significant leading bits of a prefix.
	Bits uint8
	// Lo and Hi bound an inclusive range.
	Lo, Hi uint32
}

// Prefix returns a prefix match condition.
func Prefix(value uint32, bits uint8) Value {
	return Value{Kind: KindPrefix, Value: value, Bits: bits}
}

// Range returns an inclusive range match condition.
func Range(lo, hi uint32) Value {
	return Value{Kind: KindRange, Lo: lo, Hi: hi}
}

// Exact returns an exact-value match condition.
func Exact(value uint32) Value {
	return Value{Kind: KindExact, Value: value}
}

// Wildcard returns a match-all condition.
func Wildcard() Value {
	return Value{Kind: KindWildcard}
}

// RuleValue extracts the match condition of a rule in one label dimension —
// the data handed to that dimension's engine, and the key the dimension's
// label table knows the value by. This is pure header-format extraction;
// which algorithm stores the value is decided by the registry, not here.
// Partially masked protocols never reach the field tier (they are extended
// rules).
func RuleValue(d label.Dimension, r fivetuple.Rule) Value {
	var (
		seg  uint16
		bits uint8
	)
	switch d {
	case label.DimSrcIPHigh:
		seg, bits = r.SrcPrefix.HighSegment()
	case label.DimSrcIPLow:
		seg, bits = r.SrcPrefix.LowSegment()
	case label.DimDstIPHigh:
		seg, bits = r.DstPrefix.HighSegment()
	case label.DimDstIPLow:
		seg, bits = r.DstPrefix.LowSegment()
	case label.DimSrcPort:
		return Range(uint32(r.SrcPort.Lo), uint32(r.SrcPort.Hi))
	case label.DimDstPort:
		return Range(uint32(r.DstPort.Lo), uint32(r.DstPort.Hi))
	case label.DimProtocol:
		if r.Protocol.IsWildcard() {
			return Wildcard()
		}
		return Exact(uint32(r.Protocol.Value))
	default:
		return Value{}
	}
	return Prefix(uint32(seg), bits)
}

// HeaderKeys splits a header into the per-dimension lookup keys of lookup
// phase 1 — pure header-format extraction, independent of which engine
// serves each dimension. Indexed by label.Dimension (a dense 1-based enum)
// to keep the per-packet hot path allocation-free.
func HeaderKeys(h fivetuple.Header) [label.NumDimensions + 1]uint32 {
	var keys [label.NumDimensions + 1]uint32
	keys[label.DimSrcIPHigh] = uint32(h.SrcIP.High16())
	keys[label.DimSrcIPLow] = uint32(h.SrcIP.Low16())
	keys[label.DimDstIPHigh] = uint32(h.DstIP.High16())
	keys[label.DimDstIPLow] = uint32(h.DstIP.Low16())
	keys[label.DimSrcPort] = uint32(h.SrcPort)
	keys[label.DimDstPort] = uint32(h.DstPort)
	keys[label.DimProtocol] = uint32(h.Protocol)
	return keys
}

// String renders the condition.
func (v Value) String() string {
	switch v.Kind {
	case KindPrefix:
		return fmt.Sprintf("%#x/%d", v.Value, v.Bits)
	case KindRange:
		return fmt.Sprintf("[%d,%d]", v.Lo, v.Hi)
	case KindExact:
		return fmt.Sprintf("=%d", v.Value)
	case KindWildcard:
		return "*"
	default:
		return v.Kind.String()
	}
}

// ErrUnsupportedKind is wrapped by engines rejecting a match-condition kind
// they cannot store (e.g. a range handed to a prefix trie).
var ErrUnsupportedKind = errors.New("engine: unsupported match-condition kind")

func unsupportedKind(engineName string, k Kind) error {
	return fmt.Errorf("%w: %s engine cannot store a %s value", ErrUnsupportedKind, engineName, k)
}

// CostModel is an engine's phase-2 timing contract under the Fig. 3 pipeline
// model, in clock cycles.
type CostModel struct {
	// LookupCycles is the provisioned (worst-case) phase-2 lookup latency.
	LookupCycles int
	// InitiationInterval is the number of cycles between packets the engine
	// can accept; 1 for fully pipelined structures, larger for iterative
	// ones that hold their memory port (the BST).
	InitiationInterval int
	// WorstCaseAccesses is the provisioned per-lookup memory access count
	// (the "Memory Accesses per packet" column of Table VI).
	WorstCaseAccesses int
}

// Footprint is an engine's current memory consumption, split the way §III.D
// splits the block families: node storage in the Algorithm blocks and label
// storage in the Labels blocks.
type Footprint struct {
	// NodeBits is the algorithm-block node storage in use.
	NodeBits int
	// LabelListBits is the Labels-memory storage consumed by the label lists
	// attached to the engine's nodes.
	LabelListBits int
}

// FieldEngine is one pluggable single-field lookup engine.
//
// Concurrency contract (read-only after build): once an engine stops being
// mutated, LookupInto, Cost and Footprint must be safe to call from any number
// of goroutines concurrently — LookupInto performs no writes to the engine; what
// a lookup cost is returned to the caller, never accumulated inside. Insert,
// Remove and Reprioritise still require external serialisation and must
// never run concurrently with LookupInto on the same instance. The classifier
// in internal/core guarantees that split by copy-on-write: updates mutate a
// private clone of every engine (see Cloner) and atomically publish the
// finished snapshot, so readers only ever see engines that are no longer
// written.
//
// Engines that defer expensive structure builds to the first lookup must
// implement Preparer so the classifier can force the build before a
// snapshot is published.
type FieldEngine interface {
	Cloner
	// Insert stores a match condition carrying a label and the priority of
	// the best rule using it, returning the number of engine memory writes.
	// Inserting a stored (condition, label) pair refreshes the priority,
	// keeping the better (smaller) one.
	Insert(v Value, lbl label.Label, priority int) (writes int, err error)
	// Remove deletes a stored (condition, label) pair.
	Remove(v Value, lbl label.Label) (writes int, err error)
	// Reprioritise re-installs a stored pair at a new priority, preserving
	// the HPML ordering invariant. Engines whose label lists are ordered
	// positionally (specificity) rather than by rule priority treat this as
	// a no-op.
	Reprioritise(v Value, lbl label.Label, priority int) (writes int, err error)
	// LookupInto resets out, fills it with the priority-ordered label list
	// of every stored condition matching the key and returns the number of
	// memory accesses performed. Once out has grown to the engine's result
	// size, repeated calls perform no heap allocation — the contract the
	// classifier's pooled serving path and the 0 allocs/op CI gate depend on.
	LookupInto(key uint32, out *label.List) int
	// Cost returns the engine's clock-cycle model.
	Cost() CostModel
	// Footprint returns the engine's current memory consumption.
	Footprint() Footprint
}

// Cloner is the copy half of FieldEngine, which every field engine
// implements. Clone returns an independent copy: mutating the copy must
// never be observable through the original, nor the reverse. Structure may
// be shared until it is written — immutable internals outright, anything
// else if the first write on either side copies it first, for which Clone
// may retire the receiver's ownership of what the two now share. That is
// the only write Clone may make to its receiver, and it must be to state no
// lookup reads: the classifier clones published engines, with its writer
// mutex held, while lookups traverse them. Every update clones every
// published engine, so Clone should cost what the next writes touch, not
// what the engine holds.
type Cloner interface {
	Clone() FieldEngine
}

// Preparer is implemented by engines that defer expensive structure builds
// (e.g. the RFC segment table regenerates its equivalence classes lazily on
// the next lookup). Prepare forces any pending build so that subsequent
// lookups are pure reads. A packet engine's Install prepares it; after
// deltas the classifier calls Prepare once before publishing the snapshot.
type Preparer interface {
	Prepare()
}

// reprioritise re-installs a stored pair at a new priority through the
// engine's own Remove and Insert — the shared implementation for engines
// whose label lists are ordered by rule priority.
func reprioritise(e FieldEngine, v Value, lbl label.Label, priority int) (int, error) {
	removed, err := e.Remove(v, lbl)
	if err != nil {
		return removed, err
	}
	inserted, err := e.Insert(v, lbl, priority)
	return removed + inserted, err
}

// Cycle-model constants shared by the built-in engines (Fig. 3, §V.B).
const (
	// CyclesPerTrieLevel is the cost of one multi-bit-trie level: one node
	// read plus one pipeline register.
	CyclesPerTrieLevel = 2
	// CyclesPerBSTStep is the cost of one binary-search bisection step.
	CyclesPerBSTStep = 1
	// CyclesPortLookup is the port register bank latency: one parallel
	// compare cycle plus one priority-encode cycle.
	CyclesPortLookup = 2
	// CyclesDirectLookup is the latency of a direct-indexed table (the
	// protocol LUT and the RFC phase-0 segment table).
	CyclesDirectLookup = 1
)
