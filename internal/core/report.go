package core

import "sdnpc/internal/fieldtier"

// MemoryReport breaks down the memory the current rule set occupies (Table
// VI) into the three block families of §III.D. What the synthesised design
// provisions (Table V) is the same under every rule set and is the hardware
// model's (internal/bench/model.go).
type MemoryReport struct {
	// Memory is the field engine's breakdown: the IP-segment engine's node
	// storage, the other algorithm blocks, the Labels memory and the Rule
	// Filter. It reads 0 under a whole-packet engine, which has none of them.
	fieldtier.Memory

	// Whole-packet engine: the active packet engine's name ("" when the field
	// engine serves) and the storage its precomputed structure consumes —
	// the "Memory Space" column of Table I.
	PacketEngine         string
	PacketEngineUsedBits int

	// Microflow cache: the provisioned entry slots of the exact-match cache
	// fronting the engine and their software footprint (entry structs plus
	// per-bucket eviction state). Both are 0 when the cache is disabled. The
	// cache is a software serving-path structure, not one of the modelled
	// hardware block memories, so these are reported beside — not inside —
	// the block-memory totals.
	CacheEntries int
	CacheBits    int
}

// TotalUsedBits returns the occupied block-memory bits, including the
// precomputed tables of an active whole-packet engine.
func (m MemoryReport) TotalUsedBits() int {
	return m.IPEngineUsedBits + m.ProtocolLUTBits +
		m.LabelMemoryUsedBits + m.LabelTableBits + m.RuleFilterUsedBits +
		m.PacketEngineUsedBits
}

// memoryReport computes the memory breakdown of one snapshot, for Report:
// the field engine's own breakdown, or a whole-packet engine's footprint.
func (c *Classifier) memoryReport(s *snapshot) MemoryReport {
	var report MemoryReport
	for _, ln := range c.lanes.all {
		if ln.microflow != nil {
			report.CacheEntries += ln.microflow.Capacity()
			report.CacheBits += ln.microflow.FootprintBits()
		}
	}
	if m := s.modelled; m != nil {
		report.Memory = m.Memory()
	} else {
		report.PacketEngine = s.name
		report.PacketEngineUsedBits = s.engine.Footprint().NodeBits
	}
	return report
}
