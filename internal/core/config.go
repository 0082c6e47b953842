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
// (RuleCapacityFor).
package core

import (
	"fmt"

	"sdnpc/internal/engine"
)

// Default architecture geometry: what the classifier enforces. An 8K-rule
// filter in the MBT configuration grows to ~12K rules in the BST
// configuration (Table VI, Fig. 5); the port register banks hold 128 ranges
// and the protocol label is 2 bits wide (§IV.C.1). The rest of the
// synthesised design's provisioning (the MBT level-2 budget, the Labels
// memory) is the hardware model's alone (internal/bench/model.go).
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

	// DefaultPortRegisters is the number of port-range registers per port
	// dimension (bounded by the 7-bit port label space).
	DefaultPortRegisters = 128

	// DefaultProtocolLabelBits is the protocol label width (§IV.C.1).
	DefaultProtocolLabelBits = 2

	// DefaultRebuildAfterDeltas bounds the delta debt of an incremental
	// whole-packet engine: a publish whose pending mutations would bring
	// the structure's UpdateCost().Deltas to this many rebuilds it instead
	// of delta-applying, amortising the accumulated imperfection.
	DefaultRebuildAfterDeltas = 64

	// DefaultDegradationThreshold is the degradation trip point: a publish
	// whose deltas push the engine's UpdateCost().Degradation to or past
	// this value rebuilds in the same publish.
	DefaultDegradationThreshold = 0.5
)

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

	// PortRegisters is the number of port-range registers per port dimension.
	PortRegisters int

	// MaxCrossProductProbes bounds the Rule Filter slots the exact
	// combination walk may read for a single lookup. A header that exhausts
	// it is answered by a scan of the installed rules — slower, never wrong.
	// It also caps the modelled cross-product size reported in
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
}

// DefaultConfig returns the architecture configuration evaluated in the
// paper, with the MBT selected.
func DefaultConfig() Config {
	return Config{
		IPEngine:              "mbt",
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
	return nil
}

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

// RuleCapacityFor returns the number of rules the architecture can hold
// under the named engine selection (Table VI: 8K with the MBT, ~12K with the
// BST). Engines whose node data resides entirely in the shared level-2
// blocks free the remaining MBT blocks for rule storage.
func RuleCapacityFor(name string) int {
	if def, ok := engine.Get(name); ok && def.SharesLevel2 {
		return RuleFilterSlots + ExtraRuleCapacityBST
	}
	return RuleFilterSlots
}
