// Package sdnpc is the public facade of the configurable SDN packet
// classifier (conf_socc_PerezYSS14): a label-based five-tuple classification
// architecture whose lookup algorithm is selected by name at run time.
//
// Two engine tiers share one registry. Field engines ("mbt", "bst",
// "segtrie", "rfc") serve one header dimension each and are combined through
// the paper's label method; whole-packet engines ("rfc-full", "dcfl",
// "hypercuts" — the multi-field baselines of the paper's Table I) answer the
// full five-tuple from one precomputed structure. Any selectable name works
// with WithEngine and Classifier.SelectEngine, so the trade-off between
// lookup speed, precomputed memory and update cost is run-time data.
//
// The package wraps the internal architecture behind a small surface:
// a Classifier with insert/delete/lookup, a fluent Rule builder, and engine
// selection by registry name. Import it as
//
//	import "sdnpc"
//
// and see examples/quickstart and example_test.go for complete
// walk-throughs.
package sdnpc

import (
	"fmt"

	"sdnpc/internal/cache"
	"sdnpc/internal/core"
	"sdnpc/internal/engine"
	"sdnpc/internal/fivetuple"
)

// Re-exported core types. The facade deliberately aliases rather than wraps
// these: they are plain data and the internal packages already keep them
// stable.
type (
	// Rule is one five-tuple classification rule. Build one with NewRule.
	Rule = fivetuple.Rule
	// RuleSet is an ordered collection of rules (priority = position).
	RuleSet = fivetuple.RuleSet
	// Header is the five-tuple of one packet.
	Header = fivetuple.Header
	// Result is the outcome of one lookup, including the memory accesses
	// it made.
	Result = core.Result
	// BatchReport aggregates the accounting fields of one LookupBatch call.
	BatchReport = core.BatchReport
	// Stats accumulates data-plane counters across lookups and updates.
	Stats = core.Stats
	// UpdateReport describes the cost of one rule insertion or deletion.
	UpdateReport = core.UpdateReport
	// UpdateOp is one rule mutation inside an Apply batch.
	UpdateOp = core.UpdateOp
	// UpdateStats describes how rule-update publishes were served by the
	// packet tier's update plane: delta publishes versus full rebuilds, plus
	// the wall-clock publish-latency histogram.
	UpdateStats = core.UpdateStats
	// LatencyHistogram is the fixed-bucket publish-latency histogram inside
	// UpdateStats.
	LatencyHistogram = core.LatencyHistogram
	// MemoryReport breaks down the architecture's memory consumption.
	MemoryReport = core.MemoryReport
	// CacheStats reports the microflow cache's hit/miss/eviction counters.
	CacheStats = cache.Stats
	// Report is the one-call observability snapshot returned by
	// Classifier.Report: every counter and breakdown the five historical
	// accessors returned, assembled against one published snapshot.
	Report = core.Report
	// Action is a rule's forwarding action.
	Action = fivetuple.Action
	// ActionRef is one entry of a LookupAll result: a matching rule's
	// priority, action and terminality, in strict priority order.
	ActionRef = core.ActionRef
	// DimSet is a bitmask of the optional header dimensions a rule
	// constrains or an engine supports (IPv6, VLAN, TCP flags, ...).
	DimSet = fivetuple.DimSet
)

// TCP flag bits, for RuleBuilder.TCPFlags.
const (
	TCPFin = fivetuple.TCPFin
	TCPSyn = fivetuple.TCPSyn
	TCPRst = fivetuple.TCPRst
	TCPPsh = fivetuple.TCPPsh
	TCPAck = fivetuple.TCPAck
	TCPUrg = fivetuple.TCPUrg
	TCPEce = fivetuple.TCPEce
	TCPCwr = fivetuple.TCPCwr
)

// Rule actions.
const (
	Forward    = fivetuple.ActionForward
	Drop       = fivetuple.ActionDrop
	Modify     = fivetuple.ActionModify
	Group      = fivetuple.ActionGroup
	Controller = fivetuple.ActionController
)

// Well-known IP protocol numbers.
const (
	ICMP = fivetuple.ProtoICMP
	TCP  = fivetuple.ProtoTCP
	UDP  = fivetuple.ProtoUDP
	GRE  = fivetuple.ProtoGRE
	ESP  = fivetuple.ProtoESP
)

// Engines returns the names of every selectable engine across both tiers —
// the values accepted by WithEngine and Classifier.SelectEngine.
func Engines() []string { return engine.SelectableNames() }

// FieldEngines returns the names of the registered per-field IP-segment
// engines (the first tier).
func FieldEngines() []string { return engine.IPEngineNames() }

// PacketEngines returns the names of the registered whole-packet engines
// (the second tier).
func PacketEngines() []string { return engine.PacketEngineNames() }

// NewRuleSet builds a rule set from the given rules; rule priorities are
// rewritten to their position so the set is internally consistent.
func NewRuleSet(name string, rules []Rule) *RuleSet { return fivetuple.NewRuleSet(name, rules) }

// Option adjusts the classifier configuration.
type Option func(*core.Config)

// WithEngine selects the lookup engine by registered name, whichever tier it
// belongs to: a whole-packet engine name activates the packet tier, any
// other name selects the IP-segment field engine. An empty name selects no
// engine, so New reports an error.
func WithEngine(name string) Option {
	return func(cfg *core.Config) { cfg.SetEngine(name) }
}

// WithCache enables the sharded exact-match microflow cache in front of the
// lookup engines (both tiers): repeated five-tuples are answered without
// walking any classification structure, and every rule update or engine
// switch invalidates the whole cache in O(1) via snapshot generations.
// capacity is the classifier's total entry budget: it is split evenly across
// the serving lanes (one private cache per processor, see Reader), so the
// memory asked for is the same on any core count, each lane's share rounded
// up to the sharded geometry. shards is the number of independently locked
// shards of each lane's cache, rounded up to a power of two, with <= 0
// selecting the default of 8.
func WithCache(shards, capacity int) Option {
	return func(cfg *core.Config) {
		cfg.CacheShards = shards
		cfg.CacheCapacity = capacity
	}
}

// Classifier is a configurable five-tuple packet classifier.
//
// It is safe for concurrent use. Lookups are served lock-free from an
// immutable snapshot of the data path held behind an atomic pointer; rule
// updates and engine switches build the next snapshot off to the side and
// swap it in atomically (RCU style). Any number of goroutines may call
// Lookup and LookupBatch while another inserts, deletes or switches
// engines; every result is consistent with either the pre-update or the
// post-update rule set, never a mixture.
type Classifier struct {
	inner *core.Classifier
}

// New creates a classifier with the paper's default geometry, adjusted by
// the given options.
func New(opts ...Option) (*Classifier, error) {
	cfg := core.DefaultConfig()
	for _, opt := range opts {
		opt(&cfg)
	}
	inner, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	return &Classifier{inner: inner}, nil
}

// MustNew is like New but panics on error.
func MustNew(opts ...Option) *Classifier {
	c, err := New(opts...)
	if err != nil {
		panic(err)
	}
	return c
}

// Insert installs one rule.
func (c *Classifier) Insert(r Rule) (UpdateReport, error) { return c.inner.InsertRule(r) }

// InsertAll installs every rule of the set in priority order.
func (c *Classifier) InsertAll(rs *RuleSet) (UpdateReport, error) { return c.inner.InstallRuleSet(rs) }

// Delete removes one installed rule, identified by its field matches and
// priority.
func (c *Classifier) Delete(r Rule) (UpdateReport, error) { return c.inner.DeleteRule(r) }

// Apply applies a mixed, ordered batch of insertions and deletions as one
// atomic publish — the amortised path for streamed flow-mod downloads. Ops
// are independent: a cleanly failed op is skipped with its error at its
// index in errs while the rest still apply; err is non-nil only when the
// whole batch was abandoned unpublished.
func (c *Classifier) Apply(ops []UpdateOp) (reports []UpdateReport, errs []error, err error) {
	return c.inner.ApplyUpdates(ops)
}

// Lookup classifies one packet header and returns the highest-priority
// matching rule's action together with its memory-access counters. It is
// lock-free and safe to call from any number of goroutines.
func (c *Classifier) Lookup(h Header) Result { return c.inner.Lookup(h) }

// LookupBatch classifies a batch of headers against one consistent snapshot
// of the rule set and returns one Result per header, in order. Batching
// amortises the per-call overhead of the serving path and guarantees the
// whole batch is judged by the same rule set even when updates land midway.
// Use SummarizeBatch for the batch-level accounting totals.
func (c *Classifier) LookupBatch(hs []Header) []Result { return c.inner.LookupBatch(hs) }

// LookupBatchInto is LookupBatch reusing dst's backing array when its
// capacity covers the batch (growing it otherwise); it returns dst resized
// to one Result per header. A serving loop that recycles its result slice
// allocates nothing per batch.
func (c *Classifier) LookupBatchInto(dst []Result, hs []Header) []Result {
	return c.inner.LookupBatchInto(dst, hs)
}

// LookupAll classifies one packet header under multi-action semantics: it
// returns every matching rule's action in strict priority order, up to and
// including the first terminating match, together with the first-match
// Result (refs[0] always agrees with Lookup's verdict). Non-terminating
// rules (RuleBuilder.NonTerminating) contribute their action and let
// evaluation continue — mirroring, logging or counting beside a forwarding
// verdict.
func (c *Classifier) LookupAll(h Header) ([]ActionRef, Result) { return c.inner.LookupAll(h) }

// LookupAllInto is LookupAll reusing the caller's slice, for allocation-free
// serving loops: refs are appended to dst[:0] and the (possibly regrown)
// slice is returned.
func (c *Classifier) LookupAllInto(dst []ActionRef, h Header) ([]ActionRef, Result) {
	return c.inner.LookupAllInto(dst, h)
}

// EngineDims returns the optional header dimensions the named selectable
// engine declares support for. Installing a rule that constrains a
// dimension outside the active engine's set fails with an error rather than
// silently misclassifying.
func EngineDims(name string) DimSet { return engine.Dims(name) }

// SummarizeBatch aggregates per-lookup results into batch-level totals:
// match rate and the summed memory access counters.
func SummarizeBatch(results []Result) BatchReport { return core.SummarizeBatch(results) }

// Reader is a worker-pinned serving handle: all lookups through one Reader
// go through the same serving lane — a private microflow cache (when
// WithCache is set) and private lookup counters in front of the one published
// snapshot — so pinned serving loops contend on neither. A classifier builds
// one lane per processor (GOMAXPROCS when it is created).
type Reader = core.Reader

// Reader returns the serving handle for the given worker id; ids map onto
// lanes round-robin, so a serving loop should hold one Reader per worker.
func (c *Classifier) Reader(worker int) *Reader { return c.inner.Reader(worker) }

// SelectEngine switches the lookup engine at run time — the generalised
// IPalg_s signal of the paper, extended across both tiers. The classifier
// holds one tier at a time: the named engine's tier is built from the
// installed rules (re-programmed onto a field engine, compiled into a
// whole-packet one) and swapped in; a switch the engine cannot serve fails
// and changes nothing.
func (c *Classifier) SelectEngine(name string) error { return c.inner.SelectEngine(name) }

// Engine returns the name of the engine answering lookups.
func (c *Classifier) Engine() string { return c.inner.ActiveEngineName() }

// Rules returns a copy of the installed rules best-first: ascending priority,
// rules of equal priority in installation order.
func (c *Classifier) Rules() []Rule { return c.inner.InstalledRules() }

// RuleCount returns the number of installed rules.
func (c *Classifier) RuleCount() int { return c.inner.RuleCount() }

// Report assembles the full observability snapshot in one call: data-plane
// counters, served-request summary, update-plane counters, cache counters
// and the memory breakdown, read against a single published snapshot so the
// structural fields are mutually consistent even while updates are in
// flight.
func (c *Classifier) Report() Report { return c.inner.Report() }

// ResetStats zeroes the counters without touching installed rules.
func (c *Classifier) ResetStats() { c.inner.ResetStats() }

// ParseHeader builds a packet header from dotted-quad addresses.
func ParseHeader(srcIP string, srcPort uint16, dstIP string, dstPort uint16, protocol uint8) (Header, error) {
	src, err := fivetuple.ParseIPv4(srcIP)
	if err != nil {
		return Header{}, fmt.Errorf("sdnpc: source address: %w", err)
	}
	dst, err := fivetuple.ParseIPv4(dstIP)
	if err != nil {
		return Header{}, fmt.Errorf("sdnpc: destination address: %w", err)
	}
	return Header{SrcIP: src, DstIP: dst, SrcPort: srcPort, DstPort: dstPort, Protocol: protocol}, nil
}

// MustParseHeader is like ParseHeader but panics on error.
func MustParseHeader(srcIP string, srcPort uint16, dstIP string, dstPort uint16, protocol uint8) Header {
	h, err := ParseHeader(srcIP, srcPort, dstIP, dstPort, protocol)
	if err != nil {
		panic(err)
	}
	return h
}

// ParseHeader6 builds an IPv6 packet header from textual addresses such as
// "2001:db8::1". The header's Family is FamilyIPv6; its 32-bit address
// fields stay zero.
func ParseHeader6(srcIP string, srcPort uint16, dstIP string, dstPort uint16, protocol uint8) (Header, error) {
	src, err := fivetuple.ParseIPv6(srcIP)
	if err != nil {
		return Header{}, fmt.Errorf("sdnpc: source address: %w", err)
	}
	dst, err := fivetuple.ParseIPv6(dstIP)
	if err != nil {
		return Header{}, fmt.Errorf("sdnpc: destination address: %w", err)
	}
	return Header{
		Family:   fivetuple.FamilyIPv6,
		SrcIP6:   src,
		DstIP6:   dst,
		SrcPort:  srcPort,
		DstPort:  dstPort,
		Protocol: protocol,
	}, nil
}

// MustParseHeader6 is like ParseHeader6 but panics on error.
func MustParseHeader6(srcIP string, srcPort uint16, dstIP string, dstPort uint16, protocol uint8) Header {
	h, err := ParseHeader6(srcIP, srcPort, dstIP, dstPort, protocol)
	if err != nil {
		panic(err)
	}
	return h
}
