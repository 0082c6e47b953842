// Package core implements the classifier around the paper's primary
// contribution, the configurable label-based packet classification
// architecture for SDN (§III, §IV): the rule table, the snapshot-swap
// serving path, the serving lanes and their microflow caches, and the one
// update discipline.
//
// A snapshot holds the rule table and one engine.PacketEngine programmed
// from it. Under an IP-capable engine name that is the paper's classifier,
// the field engine of internal/fieldtier: seven single-field engines, the
// label tables and the Rule Filter, answering in the four pipelined phases
// of Fig. 3 and updated by the label-counting procedure of Fig. 4. The IPalg_s
// configuration signal (§IV.C.2, Fig. 5) is the IP engine name, which decides
// how the MBT blocks are used and how many rules the Rule Filter, the one
// rule-count limit, holds. Under any other name a whole-packet engine, with no
// fixed capacity, serves instead. newEngine is the one place the two differ.
//
// Every update applies its deltas to the working engine at the op, while the
// engine's own debt allows; otherwise the publish rebuilds the engine over
// the table (see Classifier.ApplyUpdates).
package core

import (
	"fmt"

	"sdnpc/internal/engine"
)

// Defaults of the classifier: the port register banks hold 128 ranges
// (§IV.C.1), and the rebuild policy over an incremental engine's own debt.
const (
	// DefaultPortRegisters is the number of port-range registers per port
	// dimension (bounded by the 7-bit port label space).
	DefaultPortRegisters = 128

	// DefaultRebuildAfterDeltas bounds the delta debt of an incremental
	// engine: a delta that would bring the engine's UpdateCost().Deltas to
	// this many is not applied, and the publish rebuilds the engine instead,
	// amortising the accumulated imperfection.
	DefaultRebuildAfterDeltas = 64

	// DefaultDegradationThreshold is the degradation trip point: a delta
	// that pushes the engine's UpdateCost().Degradation to or past this
	// value is the last the engine takes, and the publish rebuilds it.
	DefaultDegradationThreshold = 0.5
)

// Config parameterises a Classifier. Use DefaultConfig and override fields as
// needed.
type Config struct {
	// IPEngine names the registered field engine serving the four IP-segment
	// dimensions (any of engine.IPEngineNames(); the paper's IPalg_s signal
	// selects "mbt" or "bst"). It sizes the Rule Filter, the one rule-count
	// limit: 8 192 rules, 11 512 under "bst" (Table VI).
	IPEngine string
	// PacketEngine, when set, selects a whole-packet engine ("rfc-full",
	// "dcfl", "hypercuts") to serve lookups and wins over IPEngine: one
	// precomputed structure, with no fixed rule capacity, answers the
	// five-tuple, and the field engine is not built at all. SelectEngine with
	// a field engine name builds it from the installed rules.
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
