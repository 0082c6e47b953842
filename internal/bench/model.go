package bench

import (
	"sdnpc/internal/core"
	"sdnpc/internal/engine"
	"sdnpc/internal/fieldtier"
	"sdnpc/internal/hw/hashunit"
	"sdnpc/internal/label"
)

// The paper's hardware model: the synthesised design's provisioned block
// memory (Tables V and VII, Fig. 5), the Fig. 3 lookup pipeline and the
// per-lookup latency it implies, the §V.A update cost and the Table V
// synthesis estimate. The classifier serves without any of it; what the
// model reads of a classifier is its core.Report (the lookup stage's cost
// model and the memory the rule set uses).

// clockHz is the synthesised clock frequency (Table V).
const clockHz = 133.51e6

// Lookup latency model (Fig. 3 and §V.B), in clock cycles.
const (
	cyclesDispatch    = 1 // phase 1: header split and engine dispatch
	cyclesPerMBTLevel = 2 // the 3-level MBT completes in 6 cycles
	cyclesLabelFetch  = 1 // phase 2→3: fetch the label list pointer target
	cyclesResult      = 2 // phases 3+4: combination and Rule Filter access
	// cyclesPacketResult is the result-select latency of the whole-packet
	// tier: the matched rule's action is read directly from the rule table,
	// with no label fetch and no Rule Filter probe.
	cyclesPacketResult = 1
)

// Update cost model (§V.A), in clock cycles per rule.
const (
	cyclesUpdateMemoryUpload = 2 // one cycle per direction (source, destination)
	cyclesUpdateHash         = 1 // hardware hash producing the rule address

	// updateCyclesPerRule is the constant per-rule upload cost: 2 cycles of
	// memory upload plus 1 hash cycle.
	updateCyclesPerRule = cyclesUpdateMemoryUpload + cyclesUpdateHash
)

// compile-time check that the hash unit's latency matches the update model.
var _ = [1]struct{}{}[hashunit.LatencyCycles-cyclesUpdateHash]

// Provisioning the classifier does not enforce: the level-2 node budget of
// each IP-segment trie (the block a BST shares, Fig. 5) and the Labels
// memory shared by the label lists of every dimension.
const (
	mbtLevel2Entries     = 1024
	labelMemoryEntries   = 32768
	labelMemoryEntryBits = 16
)

// Provisioned block-memory bits of the synthesised design: the same under
// every rule set.
const (
	// mbtProvisionedBits is the MBT block family: three trie levels for each
	// of the four IP segments.
	mbtProvisionedBits = 4 * (fieldtier.DefaultMBTLevel1Entries + mbtLevel2Entries + fieldtier.DefaultMBTLevel3Entries) *
		fieldtier.DefaultMBTEntryBits
	// bstProvisionedBits is the four shared level-2 blocks, which hold every
	// node of a shared-resident engine such as the BST.
	bstProvisionedBits         = 4 * mbtLevel2Entries * fieldtier.DefaultMBTEntryBits
	labelMemoryProvisionedBits = labelMemoryEntries * labelMemoryEntryBits
	// ruleFilterProvisionedBits is the base hash-addressed block. The extra
	// capacity of a shared-resident engine selection reuses the freed MBT
	// blocks, which mbtProvisionedBits already counts.
	ruleFilterProvisionedBits = fieldtier.RuleFilterSlots * fieldtier.DefaultRuleEntryBits
)

// ipEngineProvisionedBits is the block capacity the named IP engine maps
// onto: the shared level-2 blocks for a shared-resident engine, the full MBT
// block family otherwise.
func ipEngineProvisionedBits(name string) int {
	if def, ok := engine.Get(name); ok && def.SharesLevel2 {
		return bstProvisionedBits
	}
	return mbtProvisionedBits
}

// totalProvisionedBits is the block memory of the synthesised design (the
// Table V / Table VII memory figure); the protocol LUT counts at the size the
// reported classifier's field tier builds. Port registers live in logic
// registers, not block RAM, and are excluded.
func totalProvisionedBits(rep core.Report) int {
	return mbtProvisionedBits + rep.Memory.ProtocolLUTBits + labelMemoryProvisionedBits + ruleFilterProvisionedBits
}

// isPacketTier reports whether a whole-packet engine serves the reported
// classifier.
func isPacketTier(rep core.Report) bool { return rep.Memory.PacketEngine != "" }

// Stage is one phase of the modelled lookup pipeline.
type Stage struct {
	// Name identifies the stage in reports, e.g. "label fetch".
	Name string
	// LatencyCycles is the number of clock cycles a single packet spends in
	// the stage.
	LatencyCycles int
	// InitiationInterval is the number of cycles between consecutive packets
	// entering the stage: 1 for a fully pipelined stage, LatencyCycles for a
	// stage that must finish one packet before accepting the next.
	InitiationInterval int
}

// Pipeline is the ordered stage list of the lookup pipeline, clocked at the
// synthesised frequency. The paper's performance figures (§V.B, Tables VI
// and VII) all come from this accounting: the MBT has a 6-cycle latency but
// is fully pipelined, the BST needs up to 16 sequential memory accesses per
// packet, and the surrounding phases add a fixed number of cycles.
type Pipeline []Stage

// LatencyCycles returns the end-to-end latency of one packet in clock cycles:
// the sum of per-stage latencies.
func (p Pipeline) LatencyCycles() int {
	total := 0
	for _, s := range p {
		total += s.LatencyCycles
	}
	return total
}

// BottleneckInterval returns the largest initiation interval across stages,
// which bounds the packet rate.
func (p Pipeline) BottleneckInterval() int {
	maxII := 1
	for _, s := range p {
		maxII = max(maxII, s.InitiationInterval)
	}
	return maxII
}

// LookupsPerSecond returns the sustained packet (lookup) rate.
func (p Pipeline) LookupsPerSecond() float64 {
	return clockHz / float64(p.BottleneckInterval())
}

// ThroughputGbps returns the sustained line rate for the given packet size in
// bytes, the metric reported in Table VII (computed there for 40-byte
// packets) and in the conclusion (for 100-byte packets).
func (p Pipeline) ThroughputGbps(packetBytes int) float64 {
	return p.LookupsPerSecond() * float64(packetBytes) * 8 / 1e9
}

// LookupPipeline returns the Fig. 3 lookup pipeline of the reported
// classifier, for latency and throughput reporting (Table VII). Its lookup
// stage takes its latency and initiation interval from Report.LookupCost.
func LookupPipeline(rep core.Report) Pipeline {
	cost := rep.LookupCost
	dispatch := Stage{Name: "split+dispatch", LatencyCycles: cyclesDispatch, InitiationInterval: 1}
	if isPacketTier(rep) {
		// Dispatch, one whole-packet structure walk, result select — no
		// label fetch and no Rule Filter stage.
		return Pipeline{dispatch,
			Stage{
				Name:               "packet lookup (" + rep.ActiveEngine + ")",
				LatencyCycles:      cost.LookupCycles,
				InitiationInterval: cost.InitiationInterval,
			},
			Stage{Name: "result select", LatencyCycles: cyclesPacketResult, InitiationInterval: 1},
		}
	}
	return Pipeline{dispatch,
		Stage{
			Name:               "field lookup (" + rep.ActiveEngine + ")",
			LatencyCycles:      cost.LookupCycles,
			InitiationInterval: cost.InitiationInterval,
		},
		Stage{Name: "label fetch", LatencyCycles: cyclesLabelFetch, InitiationInterval: 1},
		Stage{Name: "combine+rule filter", LatencyCycles: cyclesResult, InitiationInterval: 1},
	}
}

// LookupCycles is the modelled latency of one served lookup, in clock
// cycles. On the field tier it is the pipeline latency plus one result
// cycle per label combination beyond the first (the cross-product the
// hardware examines, core.Result.Combinations); on the packet tier it is
// the dispatch, one cycle per structure access and the result select.
func LookupCycles(rep core.Report, r core.Result) int {
	if isPacketTier(rep) {
		return cyclesDispatch + r.FieldAccesses + cyclesPacketResult
	}
	return cyclesDispatch + rep.LookupCost.LookupCycles + cyclesLabelFetch + cyclesResult + max(r.Combinations-1, 0)
}

// Device describes the resources of an FPGA device that Table V reports
// usage against.
type Device struct {
	ALMs            int
	BlockMemoryBits int
	Pins            int
}

// stratixV is the device the paper synthesised on, the Altera Stratix V
// 5SGXMB6R3F43C4.
var stratixV = Device{
	ALMs:            225400,
	BlockMemoryBits: 54476800,
	Pins:            908,
}

// SynthSpec describes the synthesisable structure of an architecture
// instance, the input of the Table V estimate.
type SynthSpec struct {
	// BlockMemoryBits is the total capacity of all block-RAM memory blocks.
	BlockMemoryBits int
	// MemoryBlocks is the number of independently addressed memory blocks.
	MemoryBlocks int
	// PipelineStages is the total number of pipeline register stages across
	// all engines and the combination/result phases.
	PipelineStages int
	// DatapathBits is the width of the widest data path carried between
	// stages (header segments plus label lists plus control).
	DatapathBits int
	// RegisterFileBits counts match data held in logic registers rather than
	// block RAM (the port range registers of §IV.C).
	RegisterFileBits int
	// Comparators is the number of parallel magnitude comparators (port
	// range checks, BST node comparisons).
	Comparators int
	// HashUnits is the number of hardware hash units.
	HashUnits int
	// HeaderBits is the packet header slice presented to the classifier per
	// cycle; with the update interface it dominates pin count.
	HeaderBits int
}

// Synthesis cost-model coefficients. The paper's numbers come from Quartus
// synthesis of the authors' RTL, which is not available, so the estimate is
// a cost model: block-memory bits and I/O pins follow exactly from the
// architecture description, while logic (ALM) and register counts use linear
// per-component coefficients calibrated on the single synthesis data point
// Table V publishes, so that the paper's default geometry lands on its
// figures. The model's value is relative: it preserves how resource usage
// scales when the geometry (rule capacity, strides, label widths) changes.
const (
	// almsPerMemoryBlock covers the address decode, write-enable and output
	// multiplexing logic of one memory block.
	almsPerMemoryBlock = 1200
	// almsPerComparator covers one 16-bit magnitude comparator with its
	// range/exact match qualification logic.
	almsPerComparator = 20
	// almsPerHashUnit covers one multiply-and-fold hash pipeline.
	almsPerHashUnit = 650
	// almsPerDatapathBit covers per-bit label-list merging, priority
	// resolution and pipeline multiplexing logic along the datapath.
	almsPerDatapathBit = 102.7
	// registersPerStageBit covers the pipeline, duplication and control
	// registers associated with one datapath bit in one stage.
	registersPerStageBit = 28.0
	// baseFmaxMHz is the achievable clock of the unloaded datapath.
	baseFmaxMHz = 200.0
	// fmaxDegradationPerBlock models routing pressure added by each memory
	// block hanging off each pipeline stage.
	fmaxDegradationPerBlock = 0.0023715
	// controlPins covers clock, reset, configuration and handshake pins.
	controlPins = 52
)

// SynthReport mirrors Table V: the resource usage of the synthesised design
// against the device's capacity.
type SynthReport struct {
	Device          Device
	LogicALMs       int
	BlockMemoryBits int
	Registers       int
	FmaxMHz         float64
	Pins            int
}

// MemoryUtilisation returns the fraction of device block memory used. The
// paper reports 4% for the default architecture.
func (r SynthReport) MemoryUtilisation() float64 {
	return float64(r.BlockMemoryBits) / float64(r.Device.BlockMemoryBits)
}

// ArchSpec derives the synthesis-estimation input from the provisioned
// geometry. It describes the field-tier design of Table V: under a
// whole-packet engine the protocol LUT and port-register terms, which the
// report reads off the field engines, are 0.
func ArchSpec(rep core.Report) SynthSpec {
	// Independently addressed block memories: three trie levels per IP
	// segment, one Labels block per label dimension, the protocol LUT and
	// the Rule Filter.
	const memoryBlocks = 3*4 + label.NumDimensions + 1 + 1
	// The datapath carries the 104-bit header five-tuple, the 68-bit label
	// combination key, one label-list pointer and length per dimension and
	// the rule-filter result word.
	datapath := 104 + label.KeyBits + label.NumDimensions*(13+5) + fieldtier.DefaultRuleEntryBits
	return SynthSpec{
		BlockMemoryBits: totalProvisionedBits(rep),
		MemoryBlocks:    memoryBlocks,
		// The paper's MBT-provisioned pipeline: the three-level trie
		// completes in 6 cycles (§V.B).
		PipelineStages:   cyclesDispatch + 3*cyclesPerMBTLevel + cyclesLabelFetch + cyclesResult,
		DatapathBits:     datapath,
		RegisterFileBits: rep.Memory.PortRegisterBits,
		Comparators:      2 * core.DefaultPortRegisters * 2, // low and high bound per register, two banks
		HashUnits:        1,
		HeaderBits:       104*2 + 128 + label.KeyBits, // lookup header, update word and key buses
	}
}

// estimate applies the synthesis cost model to an architecture
// specification on the Stratix V.
func estimate(spec SynthSpec) SynthReport {
	logic := spec.MemoryBlocks*almsPerMemoryBlock +
		spec.Comparators*almsPerComparator +
		spec.HashUnits*almsPerHashUnit +
		int(float64(spec.DatapathBits)*almsPerDatapathBit)
	registers := spec.RegisterFileBits +
		int(float64(spec.PipelineStages*spec.DatapathBits)*registersPerStageBit)
	return SynthReport{
		Device:          stratixV,
		LogicALMs:       logic,
		BlockMemoryBits: spec.BlockMemoryBits,
		Registers:       registers,
		FmaxMHz:         baseFmaxMHz / (1 + fmaxDegradationPerBlock*float64(spec.MemoryBlocks)*float64(spec.PipelineStages)),
		Pins:            spec.HeaderBits + controlPins,
	}
}

// Synthesise runs the Stratix V resource estimate for the reported
// architecture instance (Table V).
func Synthesise(rep core.Report) SynthReport {
	return estimate(ArchSpec(rep))
}
