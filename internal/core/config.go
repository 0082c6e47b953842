// Package core implements the paper's primary contribution: the configurable
// label-based packet classification architecture for SDN (§III, §IV).
//
// A Classifier holds one single-field lookup engine per header dimension —
// four IP-segment engines that can be switched at run time between a
// Multi-Bit Trie (fast) and a Binary Search Tree (memory-efficient), two
// port register banks and a protocol look-up table — plus the three memory
// block families of §III.D: the Algorithm blocks (owned by the engines), the
// Labels blocks (the per-dimension label tables) and the Rule Filter block
// (a hash table addressed by the hardware hash of the 68-bit label
// combination key).
//
// Lookups follow the four pipelined phases of Fig. 3; updates follow the
// incremental label-counting procedure of Fig. 4; and the IPalg_s
// configuration signal (§IV.C.2, Fig. 5) is the IP engine name, which
// decides how the MBT blocks are used and how many rules fit
// (Config.RuleCapacityFor).
package core

import (
	"fmt"
	"math"

	"sdnpc/internal/engine"
)

// Default architecture geometry. The constants reproduce the memory budget
// the paper reports: ~2.1 Mbit of block memory (Tables V and VII), an 8K-rule
// filter in the MBT configuration growing to ~12K rules in the BST
// configuration (Table VI), 128-entry port register banks and the label
// widths of §IV.C.1.
const (
	// Multi-Bit Trie provisioning per 16-bit IP segment: the three levels use
	// 5-, 5- and 6-bit strides; level 1 is a single 32-entry node and levels
	// 2 and 3 are provisioned with a fixed node budget.
	DefaultMBTLevel1Entries = 32
	DefaultMBTLevel2Entries = 1024
	DefaultMBTLevel3Entries = 3288
	DefaultMBTEntryBits     = 32

	// DefaultBSTNodeBits is the width of one BST interval node stored in the
	// shared level-2 block.
	DefaultBSTNodeBits = 32

	// DefaultRuleFilterAddressBits gives an 8192-slot Rule Filter (13-bit
	// addresses produced by the hash unit).
	DefaultRuleFilterAddressBits = 13
	// DefaultRuleEntryBits is the width of one Rule Filter entry: the 68-bit
	// combination key, a 14-bit priority, a 3-bit action, a 16-bit action
	// argument and a valid flag, padded to a power-of-two word.
	DefaultRuleEntryBits = 128

	// DefaultLabelMemoryEntries provisions the Labels memory block shared by
	// the label lists of every dimension.
	DefaultLabelMemoryEntries = 32768
	// DefaultLabelMemoryEntryBits is the width of one stored label entry.
	DefaultLabelMemoryEntryBits = 16

	// DefaultPortRegisters is the number of port-range registers per port
	// dimension (bounded by the 7-bit port label space).
	DefaultPortRegisters = 128

	// DefaultProtocolLabelBits is the protocol label width (§IV.C.1).
	DefaultProtocolLabelBits = 2

	// DefaultRebuildAfterDeltas is the default delta-debt bound of the
	// packet-tier update policy: after this many delta ops have been absorbed
	// since the last full build, the next publish rebuilds the precomputed
	// structure instead of delta-applying, amortising the accumulated
	// imperfection.
	DefaultRebuildAfterDeltas = 64

	// DefaultDegradationThreshold is the default degradation trip point: a
	// publish whose deltas push the incremental engine's
	// UpdateCost.Degradation to or past this value rebuilds in the same
	// publish.
	DefaultDegradationThreshold = 0.5
)

// CombineMode selects how the label lists of the seven dimensions are
// combined into Rule Filter probes in lookup phase 3.
type CombineMode uint8

// Combination modes.
const (
	// CombineHPML is the paper's single-probe method: the Highest Priority
	// Matching Label of every dimension is concatenated and hashed once
	// (§III.B). It can miss the true highest-priority matching rule when
	// that rule does not hold the first-position label in every dimension,
	// so nothing serves with it: only the hpml experiment of cmd/experiments
	// selects it, to measure how often it agrees with the exact mode.
	CombineHPML CombineMode = iota + 1
	// CombineCrossProduct returns the best-priority rule over every
	// combination of returned labels. It is exact (it always agrees with a
	// linear reference search). The software finds that rule by walking only
	// the label prefixes some installed rule has (snapshot.combineExact) — a
	// few Rule Filter probes per packet; Result.Combinations still reports
	// the full cross-product the hardware would examine. It is the serving
	// mode and the yardstick for how often the single-probe mode is optimal.
	CombineCrossProduct
)

// String names the mode.
func (m CombineMode) String() string {
	switch m {
	case CombineHPML:
		return "hpml"
	case CombineCrossProduct:
		return "cross-product"
	default:
		return fmt.Sprintf("CombineMode(%d)", uint8(m))
	}
}

// Config parameterises a Classifier. Use DefaultConfig and override fields as
// needed.
type Config struct {
	// IPEngine names the registered field engine serving the four IP-segment
	// dimensions (see internal/engine: "mbt", "bst", "segtrie", "rfc", ...).
	// The paper's IPalg_s signal selects between its two values, "mbt" and
	// "bst"; any name in engine.IPEngineNames() is accepted.
	IPEngine string
	// PacketEngine, when set, selects a whole-packet engine ("rfc-full",
	// "dcfl", "hypercuts") to serve lookups and wins over IPEngine: the
	// five-tuple is answered by one precomputed structure, and the per-field
	// engines, label tables and Rule Filter are not built at all. SelectEngine
	// with a field engine name builds them from the installed rules.
	PacketEngine string
	// CombineMode selects the phase-3 combination strategy.
	CombineMode CombineMode

	// MBTLevel2Entries and MBTLevel3Entries size the provisioned node budget
	// of levels 2 and 3 of each IP-segment trie (level 1 always holds one
	// 32-entry node).
	MBTLevel2Entries int
	MBTLevel3Entries int

	// RuleFilterAddressBits sizes the Rule Filter hash table at
	// 2^RuleFilterAddressBits slots.
	RuleFilterAddressBits int
	// RuleEntryBits is the stored width of one Rule Filter entry.
	RuleEntryBits int

	// LabelMemoryEntries and LabelMemoryEntryBits size the Labels memory.
	LabelMemoryEntries   int
	LabelMemoryEntryBits int

	// PortRegisters is the number of port-range registers per port dimension.
	PortRegisters int

	// MaxCrossProductProbes bounds the Rule Filter slots the exact
	// (cross-product) combination mode may read for a single lookup. A header
	// that exhausts it is answered by a scan of the installed rules — slower,
	// never wrong. It also caps the modelled cross-product size reported in
	// Result.Combinations.
	MaxCrossProductProbes int

	// CacheCapacity is the classifier's total entry budget for the
	// exact-match microflow cache that fronts both engine tiers; 0 (the
	// default) disables the cache. The budget is split evenly across the
	// serving lanes (one private cache per processor, see lanes), so the
	// memory asked for is the same on any core count; each lane's share is
	// rounded up so every cache shard holds a power-of-two number of
	// fixed-associativity buckets.
	CacheCapacity int
	// CacheShards is the number of independently locked shards of each
	// lane's cache, rounded up to a power of two; <= 0 selects the default
	// (8). Only consulted when CacheCapacity > 0.
	CacheShards int

	// RebuildAfterDeltas bounds the delta debt of an incremental whole-packet
	// engine: once the structure has absorbed this many delta ops since its
	// last full build, the next publish rebuilds instead of delta-applying.
	// 0 selects DefaultRebuildAfterDeltas; 1 degenerates to rebuild-on-every-
	// publish (the pre-incremental behaviour, useful as a benchmark
	// baseline); negative disables the bound so only the degradation
	// threshold forces rebuilds. Ignored by non-incremental engines, which
	// always rebuild.
	RebuildAfterDeltas int
	// DegradationThreshold forces a rebuild in the same publish whose deltas
	// drive the incremental engine's UpdateCost.Degradation to or past this
	// value. 0 selects DefaultDegradationThreshold; values above 1 or below
	// 0 disable the trip (Degradation itself never leaves [0,1]), mirroring
	// the negative-disables convention of RebuildAfterDeltas; NaN is
	// rejected by Validate.
	DegradationThreshold float64
}

// DefaultConfig returns the architecture configuration evaluated in the
// paper, with the MBT selected and the exact (cross-product) combination
// mode.
func DefaultConfig() Config {
	return Config{
		IPEngine:              "mbt",
		CombineMode:           CombineCrossProduct,
		MBTLevel2Entries:      DefaultMBTLevel2Entries,
		MBTLevel3Entries:      DefaultMBTLevel3Entries,
		RuleFilterAddressBits: DefaultRuleFilterAddressBits,
		RuleEntryBits:         DefaultRuleEntryBits,
		LabelMemoryEntries:    DefaultLabelMemoryEntries,
		LabelMemoryEntryBits:  DefaultLabelMemoryEntryBits,
		PortRegisters:         DefaultPortRegisters,
		MaxCrossProductProbes: 65536,
	}
}

// SetEngine selects the serving engine by registered name, whichever tier it
// belongs to: a whole-packet engine name sets PacketEngine and clears
// IPEngine, any other name does the reverse. An unregistered name lands in
// IPEngine so Validate (and New) reports it.
func (c *Config) SetEngine(name string) {
	if isPacket, ok := engine.Selectable(name); ok && isPacket {
		c.IPEngine, c.PacketEngine = "", name
		return
	}
	c.IPEngine, c.PacketEngine = name, ""
}

// engineName resolves the engine a new classifier serves from: PacketEngine
// when set, otherwise IPEngine.
func (c Config) engineName() string {
	if c.PacketEngine != "" {
		return c.PacketEngine
	}
	return c.IPEngine
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.IPEngine == "" && c.PacketEngine == "" {
		return fmt.Errorf("core: no engine selected (set IPEngine to one of %v or PacketEngine to one of %v)",
			engine.IPEngineNames(), engine.PacketEngineNames())
	}
	if c.IPEngine != "" {
		def, ok := engine.Get(c.IPEngine)
		if !ok {
			return fmt.Errorf("core: unknown field engine %q (registered: %v)", c.IPEngine, engine.IPEngineNames())
		}
		if !def.IPCapable {
			return fmt.Errorf("core: engine %q cannot serve the IP-segment dimensions", c.IPEngine)
		}
	}
	if c.PacketEngine != "" {
		def, ok := engine.Get(c.PacketEngine)
		if !ok || def.PacketFactory == nil {
			return fmt.Errorf("core: unknown packet engine %q (registered: %v)",
				c.PacketEngine, engine.PacketEngineNames())
		}
	}
	if c.CombineMode != CombineHPML && c.CombineMode != CombineCrossProduct {
		return fmt.Errorf("core: unknown combination mode %v", c.CombineMode)
	}
	if c.MBTLevel2Entries < 32 || c.MBTLevel3Entries < 64 {
		return fmt.Errorf("core: MBT level budgets (%d, %d) must hold at least one node each",
			c.MBTLevel2Entries, c.MBTLevel3Entries)
	}
	if c.RuleFilterAddressBits < 4 || c.RuleFilterAddressBits > 24 {
		return fmt.Errorf("core: rule filter address width %d out of range [4,24]", c.RuleFilterAddressBits)
	}
	if c.RuleEntryBits < 86 {
		return fmt.Errorf("core: rule entry width %d cannot hold key, priority and action", c.RuleEntryBits)
	}
	if c.LabelMemoryEntries < 1 || c.LabelMemoryEntryBits < 13 {
		return fmt.Errorf("core: label memory geometry (%d x %d) too small",
			c.LabelMemoryEntries, c.LabelMemoryEntryBits)
	}
	if c.PortRegisters < 1 || c.PortRegisters > 128 {
		return fmt.Errorf("core: port register count %d out of range [1,128]", c.PortRegisters)
	}
	if c.MaxCrossProductProbes < 1 {
		return fmt.Errorf("core: cross-product probe budget must be positive")
	}
	if c.CacheCapacity < 0 {
		return fmt.Errorf("core: microflow cache capacity %d must not be negative", c.CacheCapacity)
	}
	if c.CacheCapacity > 0 && c.CacheCapacity > 1<<24 {
		return fmt.Errorf("core: microflow cache capacity %d out of range (max %d entries)", c.CacheCapacity, 1<<24)
	}
	if c.CacheShards > 1<<12 {
		return fmt.Errorf("core: microflow cache shard count %d out of range (max %d)", c.CacheShards, 1<<12)
	}
	if math.IsNaN(c.DegradationThreshold) {
		return fmt.Errorf("core: degradation threshold must not be NaN")
	}
	return nil
}

// rebuildAfterDeltas resolves the configured delta-debt bound: the explicit
// value, or the default when unset. Negative means unbounded.
func (c Config) rebuildAfterDeltas() int {
	if c.RebuildAfterDeltas == 0 {
		return DefaultRebuildAfterDeltas
	}
	return c.RebuildAfterDeltas
}

// degradationThreshold resolves the configured degradation trip point: the
// default when unset, and an unreachable value when negative (disabled) so
// the delta path never pointlessly applies-then-discards its work.
func (c Config) degradationThreshold() float64 {
	switch {
	case c.DegradationThreshold == 0:
		return DefaultDegradationThreshold
	case c.DegradationThreshold < 0:
		return 2 // Degradation never leaves [0,1]: the trip is disabled
	default:
		return c.DegradationThreshold
	}
}

// RuleFilterSlots returns the number of Rule Filter slots in the base (MBT)
// configuration.
func (c Config) RuleFilterSlots() int { return 1 << c.RuleFilterAddressBits }

// mbtProvisionedBitsPerSegment returns the provisioned node storage of one
// IP-segment trie.
func (c Config) mbtProvisionedBitsPerSegment() int {
	return (DefaultMBTLevel1Entries + c.MBTLevel2Entries + c.MBTLevel3Entries) * DefaultMBTEntryBits
}

// sharedLevel2BitsPerSegment returns the capacity of the shared level-2 /
// BST block of one IP segment.
func (c Config) sharedLevel2BitsPerSegment() int {
	return c.MBTLevel2Entries * DefaultMBTEntryBits
}

// freedMBTBitsPerSegment returns the MBT storage released for rule data when
// the BST is selected: levels 1 and 3 (level 2 keeps the BST nodes).
func (c Config) freedMBTBitsPerSegment() int {
	return (DefaultMBTLevel1Entries + c.MBTLevel3Entries) * DefaultMBTEntryBits
}

// ExtraRuleCapacityBST returns how many additional Rule Filter entries fit in
// the MBT blocks freed by selecting the BST (Fig. 5: "the rest of the memory
// determined for MBT can be used to collect more rules").
func (c Config) ExtraRuleCapacityBST() int {
	return 4 * c.freedMBTBitsPerSegment() / c.RuleEntryBits
}

// RuleCapacityFor returns the number of rules the architecture can hold
// under the named engine selection (Table VI: 8K with the MBT, ~12K with the
// BST). Engines whose node data resides entirely in the shared level-2
// blocks free the remaining MBT blocks for rule storage.
func (c Config) RuleCapacityFor(name string) int {
	if def, ok := engine.Get(name); ok && def.SharesLevel2 {
		return c.RuleFilterSlots() + c.ExtraRuleCapacityBST()
	}
	return c.RuleFilterSlots()
}
