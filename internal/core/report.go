package core

import (
	"sdnpc/internal/engine"
	"sdnpc/internal/hw/pipeline"
	"sdnpc/internal/hw/synth"
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

	// Update plane: the delta debt of the active packet structure. Deltas is
	// how many incremental ops it has absorbed since its last full build,
	// and Degradation the engine-reported drift from a fresh build (stale
	// DCFL combination entries, overfull HyperCuts leaves). Both are 0 for
	// non-incremental engines and right after a rebuild.
	PacketEngineDeltas      int
	PacketEngineDegradation float64

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

// memoryReport computes the memory breakdown of one snapshot, for Report
// and ArchSpec. Provisioned figures come from the configured geometry and
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
		report.PacketEngineDeltas = p.deltas
		if inc, ok := p.engine.(engine.IncrementalPacketEngine); ok {
			report.PacketEngineDegradation = inc.UpdateCost().Degradation
		}
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

// Pipeline returns the Fig. 3 lookup pipeline under the current engine
// selection, for latency and throughput reporting (Table VII). The IP stage
// takes its latency and initiation interval from the active engine's cost
// model.
func (c *Classifier) Pipeline() *pipeline.Pipeline {
	s := c.view()
	if p := s.packet; p != nil {
		// Packet tier: dispatch, one whole-packet structure walk, result
		// select — no label fetch and no Rule Filter stage.
		cost := p.engine.Cost()
		return pipeline.MustNew("lookup/"+p.name, c.cfg.ClockHz,
			pipeline.Stage{Name: "split+dispatch", LatencyCycles: CyclesDispatch, InitiationInterval: 1},
			pipeline.Stage{
				Name:               "packet lookup (" + p.name + ")",
				LatencyCycles:      cost.LookupCycles,
				InitiationInterval: cost.InitiationInterval,
			},
			pipeline.Stage{Name: "result select", LatencyCycles: CyclesPacketResult, InitiationInterval: 1},
		)
	}
	f := s.field
	cost := f.engines[label.DimSrcIPHigh].Cost()
	ipStage := pipeline.Stage{
		Name:               "field lookup (" + f.engineName + ")",
		LatencyCycles:      cost.LookupCycles,
		InitiationInterval: cost.InitiationInterval,
	}
	return pipeline.MustNew("lookup/"+f.engineName, c.cfg.ClockHz,
		pipeline.Stage{Name: "split+dispatch", LatencyCycles: CyclesDispatch, InitiationInterval: 1},
		ipStage,
		pipeline.Stage{Name: "label fetch", LatencyCycles: CyclesLabelFetch, InitiationInterval: 1},
		pipeline.Stage{Name: "combine+rule filter", LatencyCycles: CyclesResult, InitiationInterval: 1},
	)
}

// ThroughputGbps returns the sustained line rate for the given packet size
// under the current algorithm selection.
func (c *Classifier) ThroughputGbps(packetBytes int) float64 {
	return c.Pipeline().ThroughputGbps(packetBytes)
}

// LookupsPerSecond returns the sustained lookup rate under the current
// algorithm selection.
func (c *Classifier) LookupsPerSecond() float64 {
	return c.Pipeline().LookupsPerSecond()
}

// memoryBlockCount returns the number of independently addressed block
// memories in the design: three trie levels per IP segment, one Labels block
// per label dimension, the protocol LUT and the Rule Filter.
func (c *Classifier) memoryBlockCount() int {
	return 3*len(ipSegmentDims) + label.NumDimensions + 1 + 1
}

// ArchSpec derives the synthesis-estimation input from the configured
// geometry (see internal/hw/synth). It describes the field-tier design of
// Table V: under a whole-packet engine the protocol LUT and port-register
// terms, which are read off the resident field engines, are 0.
func (c *Classifier) ArchSpec() synth.ArchSpec {
	report := c.memoryReport(c.view())
	// The datapath carries the 104-bit header five-tuple, the 68-bit label
	// combination key, one label-list pointer and length per dimension and
	// the rule-filter result word.
	datapath := 104 + label.KeyBits + label.NumDimensions*(13+5) + c.cfg.RuleEntryBits
	return synth.ArchSpec{
		BlockMemoryBits:  report.TotalProvisionedBits(),
		MemoryBlocks:     c.memoryBlockCount(),
		PipelineStages:   CyclesDispatch + mbtLookupCycles() + CyclesLabelFetch + CyclesResult,
		DatapathBits:     datapath,
		RegisterFileBits: report.PortRegisterBits,
		Comparators:      2 * c.cfg.PortRegisters * 2, // low and high bound per register, two banks
		HashUnits:        1,
		HeaderBits:       104*2 + 128 + label.KeyBits, // lookup header, update word and key buses
	}
}

// Synthesise runs the Stratix V resource estimate for this architecture
// instance (Table V).
func (c *Classifier) Synthesise() (synth.Report, error) {
	return synth.Estimate(c.ArchSpec(), synth.StratixV())
}
