package bench

import (
	"sdnpc/internal/core"
	"sdnpc/internal/hw/hashunit"
	"sdnpc/internal/hw/pipeline"
	"sdnpc/internal/hw/synth"
	"sdnpc/internal/label"
)

// The paper's hardware cost model: the Fig. 3 lookup pipeline and the
// per-lookup latency it implies, the §V.A update cost and the Table V
// synthesis input. The classifier serves without any of it; what the model
// reads of a classifier is its core.Report (the lookup stage's cost model
// and the memory breakdown) and its core.Config.

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

// isPacketTier reports whether a whole-packet engine serves the reported
// classifier.
func isPacketTier(rep core.Report) bool { return rep.Memory.PacketEngine != "" }

// Pipeline returns the Fig. 3 lookup pipeline of the reported classifier,
// for latency and throughput reporting (Table VII). Its lookup stage takes
// its latency and initiation interval from Report.LookupCost.
func Pipeline(rep core.Report) *pipeline.Pipeline {
	cost := rep.LookupCost
	dispatch := pipeline.Stage{Name: "split+dispatch", LatencyCycles: cyclesDispatch, InitiationInterval: 1}
	if isPacketTier(rep) {
		// Dispatch, one whole-packet structure walk, result select — no
		// label fetch and no Rule Filter stage.
		return pipeline.MustNew("lookup/"+rep.ActiveEngine, clockHz, dispatch,
			pipeline.Stage{
				Name:               "packet lookup (" + rep.ActiveEngine + ")",
				LatencyCycles:      cost.LookupCycles,
				InitiationInterval: cost.InitiationInterval,
			},
			pipeline.Stage{Name: "result select", LatencyCycles: cyclesPacketResult, InitiationInterval: 1},
		)
	}
	return pipeline.MustNew("lookup/"+rep.ActiveEngine, clockHz, dispatch,
		pipeline.Stage{
			Name:               "field lookup (" + rep.ActiveEngine + ")",
			LatencyCycles:      cost.LookupCycles,
			InitiationInterval: cost.InitiationInterval,
		},
		pipeline.Stage{Name: "label fetch", LatencyCycles: cyclesLabelFetch, InitiationInterval: 1},
		pipeline.Stage{Name: "combine+rule filter", LatencyCycles: cyclesResult, InitiationInterval: 1},
	)
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

// ArchSpec derives the synthesis-estimation input from the configured
// geometry (see internal/hw/synth). It describes the field-tier design of
// Table V: under a whole-packet engine the protocol LUT and port-register
// terms, which the report reads off the field engines, are 0.
func ArchSpec(cfg core.Config, rep core.Report) synth.ArchSpec {
	// Independently addressed block memories: three trie levels per IP
	// segment, one Labels block per label dimension, the protocol LUT and
	// the Rule Filter.
	const memoryBlocks = 3*4 + label.NumDimensions + 1 + 1
	// The datapath carries the 104-bit header five-tuple, the 68-bit label
	// combination key, one label-list pointer and length per dimension and
	// the rule-filter result word.
	datapath := 104 + label.KeyBits + label.NumDimensions*(13+5) + cfg.RuleEntryBits
	return synth.ArchSpec{
		BlockMemoryBits: rep.Memory.TotalProvisionedBits(),
		MemoryBlocks:    memoryBlocks,
		// The paper's MBT-provisioned pipeline: the three-level trie
		// completes in 6 cycles (§V.B).
		PipelineStages:   cyclesDispatch + 3*cyclesPerMBTLevel + cyclesLabelFetch + cyclesResult,
		DatapathBits:     datapath,
		RegisterFileBits: rep.Memory.PortRegisterBits,
		Comparators:      2 * cfg.PortRegisters * 2, // low and high bound per register, two banks
		HashUnits:        1,
		HeaderBits:       104*2 + 128 + label.KeyBits, // lookup header, update word and key buses
	}
}

// Synthesise runs the Stratix V resource estimate for the reported
// architecture instance (Table V).
func Synthesise(cfg core.Config, rep core.Report) (synth.Report, error) {
	return synth.Estimate(ArchSpec(cfg, rep), synth.StratixV())
}
