package core

import (
	"sdnpc/internal/engine"
	"sdnpc/internal/label"
)

// MemoryReport breaks down the architecture's memory consumption into the
// three block families of §III.D, distinguishing provisioned capacity (what
// the synthesised design reserves, Table V) from used bits (what the current
// rule set occupies, Table VI).
type MemoryReport struct {
	// IPEngine is the registry name of the field engine serving the
	// IP-segment dimensions ("" when a whole-packet engine serves).
	IPEngine string

	// IP algorithm blocks. IPEngineUsedBits is the node storage of the
	// active engine whatever its name (the "Memory Space Required" column of
	// Table VI); IPEngineProvisionedBits is the block capacity that engine
	// maps onto (the shared level-2 blocks for shared-resident engines, the
	// full MBT block family otherwise).
	IPEngineUsedBits        int
	IPEngineProvisionedBits int
	MBTProvisionedBits      int
	BSTProvisionedBits      int

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
	// the provisioned block-memory totals.
	CacheEntries int
	CacheBits    int

	// Labels memory block (used bits are 0 under a whole-packet engine).
	LabelMemoryProvisionedBits int
	LabelMemoryUsedBits        int
	LabelTableBits             int

	// Rule Filter block (used bits are 0 under a whole-packet engine).
	RuleFilterProvisionedBits int
	RuleFilterUsedBits        int

	RulesInstalled int
	RuleCapacity   int
}

// TotalProvisionedBits returns the block-memory capacity of the synthesised
// design (the Table V / Table VII memory figure). Port registers live in
// logic registers, not block RAM, and are excluded.
func (m MemoryReport) TotalProvisionedBits() int {
	return m.MBTProvisionedBits + m.ProtocolLUTBits +
		m.LabelMemoryProvisionedBits + m.RuleFilterProvisionedBits
}

// TotalUsedBits returns the occupied block-memory bits, including the
// precomputed tables of an active whole-packet engine.
func (m MemoryReport) TotalUsedBits() int {
	return m.IPEngineUsedBits + m.ProtocolLUTBits +
		m.LabelMemoryUsedBits + m.LabelTableBits + m.RuleFilterUsedBits +
		m.PacketEngineUsedBits
}

// memoryReport computes the memory breakdown of one snapshot, for Report.
// Provisioned figures come from the configured geometry and
// are the same under every engine; used figures (and the protocol LUT and
// port registers, which exist only as field engines) describe the one tier
// the snapshot holds and read 0 for the other.
func (c *Classifier) memoryReport(s *snapshot) MemoryReport {
	report := MemoryReport{
		MBTProvisionedBits: 4 * c.cfg.mbtProvisionedBitsPerSegment(),
		BSTProvisionedBits: 4 * c.cfg.sharedLevel2BitsPerSegment(),

		LabelMemoryProvisionedBits: c.cfg.LabelMemoryEntries * c.cfg.LabelMemoryEntryBits,

		// The provisioned Rule Filter is the base hash-addressed block; the
		// extra capacity available under a shared-resident engine selection
		// reuses the freed MBT blocks, which are already counted in
		// MBTProvisionedBits.
		RuleFilterProvisionedBits: c.cfg.RuleFilterSlots() * c.cfg.RuleEntryBits,

		RulesInstalled: s.table.len(),
		RuleCapacity:   c.cfg.RuleCapacityFor(s.activeEngineName()),
	}
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
	def, _ := engine.Get(f.engineName)
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
	report.IPEngineProvisionedBits = report.MBTProvisionedBits
	if def.SharesLevel2 {
		report.IPEngineProvisionedBits = report.BSTProvisionedBits
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
