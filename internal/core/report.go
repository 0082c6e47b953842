package core

import (
	"sdnpc/internal/engine"
	"sdnpc/internal/label"
)

// MemoryReport breaks down the memory the current rule set occupies (Table
// VI) into the three block families of §III.D. What the synthesised design
// provisions (Table V) is the same under every rule set and is the hardware
// model's (internal/bench/model.go).
type MemoryReport struct {
	// IPEngine is the registry name of the field engine serving the
	// IP-segment dimensions ("" when a whole-packet engine serves).
	IPEngine string

	// IP algorithm blocks: the node storage of the active engine whatever
	// its name (the "Memory Space Required" column of Table VI).
	IPEngineUsedBits int

	// Other algorithm blocks of the field tier (0 under a whole-packet
	// engine, which has neither).
	ProtocolLUTBits  int
	PortRegisterBits int

	// Whole-packet engine tier: the active packet engine's name ("" when
	// the field tier serves) and the storage its precomputed structure
	// consumes — the "Memory Space" column of Table I.
	PacketEngine         string
	PacketEngineUsedBits int

	// Microflow cache: the provisioned entry slots of the exact-match cache
	// fronting both tiers and their software footprint (entry structs plus
	// per-bucket eviction state). Both are 0 when the cache is disabled. The
	// cache is a software serving-path structure, not one of the modelled
	// hardware block memories, so these are reported beside — not inside —
	// the block-memory totals.
	CacheEntries int
	CacheBits    int

	// Labels memory block (0 under a whole-packet engine).
	LabelMemoryUsedBits int
	LabelTableBits      int

	// Rule Filter block (0 under a whole-packet engine).
	RuleFilterUsedBits int
}

// TotalUsedBits returns the occupied block-memory bits, including the
// precomputed tables of an active whole-packet engine.
func (m MemoryReport) TotalUsedBits() int {
	return m.IPEngineUsedBits + m.ProtocolLUTBits +
		m.LabelMemoryUsedBits + m.LabelTableBits + m.RuleFilterUsedBits +
		m.PacketEngineUsedBits
}

// memoryReport computes the memory breakdown of one snapshot, for Report.
// The figures (and the protocol LUT and port registers, which exist only as
// field engines) describe the one tier the snapshot holds and read 0 for the
// other.
func (c *Classifier) memoryReport(s *snapshot) MemoryReport {
	var report MemoryReport
	for _, ln := range c.lanes.all {
		if ln.microflow != nil {
			report.CacheEntries += ln.microflow.Capacity()
			report.CacheBits += ln.microflow.FootprintBits()
		}
	}
	if p := s.packet; p != nil {
		report.PacketEngine = p.name
		report.PacketEngineUsedBits = p.engine.Footprint().NodeBits
		return report
	}
	f := s.field
	report.IPEngine = f.engineName
	report.ProtocolLUTBits = f.engines[label.DimProtocol].Footprint().NodeBits
	report.PortRegisterBits = f.engines[label.DimSrcPort].Footprint().NodeBits +
		f.engines[label.DimDstPort].Footprint().NodeBits
	report.LabelTableBits = f.labelTableBits
	report.RuleFilterUsedBits = f.filter.usedBits()
	// Only the selected engine's node data is resident in the (shared)
	// memory blocks, so usage is reported for that engine alone.
	for _, d := range ipSegmentDims {
		fp := f.engines[d].Footprint()
		report.IPEngineUsedBits += fp.NodeBits
		report.LabelMemoryUsedBits += fp.LabelListBits
	}
	return report
}

// lookupCost returns the cost model of the snapshot's lookup stage (Fig. 3
// phase 2), for Report: the packet engine's own, or on the field tier the
// element-wise maximum over the seven field engines, which the modelled
// hardware runs in parallel.
func (s *snapshot) lookupCost() engine.CostModel {
	if p := s.packet; p != nil {
		return p.engine.Cost()
	}
	var cost engine.CostModel
	for _, d := range label.Dimensions() {
		c := s.field.engines[d].Cost()
		cost.LookupCycles = max(cost.LookupCycles, c.LookupCycles)
		cost.InitiationInterval = max(cost.InitiationInterval, c.InitiationInterval)
		cost.WorstCaseAccesses = max(cost.WorstCaseAccesses, c.WorstCaseAccesses)
	}
	return cost
}
