// Package synth estimates the FPGA resource usage of an architecture
// instance, reproducing the quantities reported in Table V of the paper
// (synthesis results on an Altera Stratix V 5SGXMB6R3F43C4).
//
// Substitution note (see DESIGN.md): the original numbers come from Quartus
// synthesis of the authors' RTL, which is not available. This package is a
// cost model: block-memory bits and I/O pins are derived exactly from the
// architecture description, while logic (ALM) and register counts use linear
// per-component coefficients calibrated so that the paper's default
// architecture geometry lands on the published figures. The model's value is
// relative — it preserves how resource usage scales when the architecture's
// geometry (rule capacity, strides, label widths) is changed, which is what
// the ablation benchmarks exercise.
package synth

import "fmt"

// Device describes an FPGA device's available resources.
type Device struct {
	Name            string
	ALMs            int
	BlockMemoryBits int
	Registers       int
	Pins            int
}

// StratixV returns the device used in the paper, the Altera Stratix V
// 5SGXMB6R3F43C4.
func StratixV() Device {
	return Device{
		Name:            "Altera Stratix V 5SGXMB6R3F43C4",
		ALMs:            225400,
		BlockMemoryBits: 54476800,
		Registers:       901600, // 4 registers per ALM
		Pins:            908,
	}
}

// ArchSpec describes the synthesisable structure of an architecture
// instance. It is produced by internal/core from its configured geometry.
type ArchSpec struct {
	// BlockMemoryBits is the total capacity of all block-RAM memory blocks.
	BlockMemoryBits int
	// MemoryBlocks is the number of independently addressed memory blocks.
	MemoryBlocks int
	// PipelineStages is the total number of pipeline registers stages across
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

// Validate reports whether the specification is usable.
func (s ArchSpec) Validate() error {
	if s.BlockMemoryBits <= 0 {
		return fmt.Errorf("synth: block memory bits must be positive, got %d", s.BlockMemoryBits)
	}
	if s.MemoryBlocks <= 0 {
		return fmt.Errorf("synth: memory block count must be positive, got %d", s.MemoryBlocks)
	}
	if s.PipelineStages <= 0 {
		return fmt.Errorf("synth: pipeline stage count must be positive, got %d", s.PipelineStages)
	}
	return nil
}

// Cost-model coefficients. The constants are calibrated against the single
// synthesis data point published in Table V (see the package comment); they
// are exported so the calibration is visible and testable.
const (
	// ALMsPerMemoryBlock covers the address decode, write-enable and output
	// multiplexing logic of one memory block.
	ALMsPerMemoryBlock = 1200
	// ALMsPerComparator covers one 16-bit magnitude comparator with its
	// range/exact match qualification logic.
	ALMsPerComparator = 20
	// ALMsPerHashUnit covers one multiply-and-fold hash pipeline.
	ALMsPerHashUnit = 650
	// ALMsPerDatapathBit covers per-bit label-list merging, priority
	// resolution and pipeline multiplexing logic along the datapath.
	ALMsPerDatapathBit = 102.7
	// RegistersPerStageBit covers the pipeline, duplication and control
	// registers associated with one datapath bit in one stage.
	RegistersPerStageBit = 28.0
	// BaseFmaxMHz is the achievable clock of the unloaded datapath.
	BaseFmaxMHz = 200.0
	// FmaxDegradationPerBlock models routing pressure added by each memory
	// block hanging off each pipeline stage.
	FmaxDegradationPerBlock = 0.0023715
	// ControlPins covers clock, reset, configuration and handshake pins.
	ControlPins = 52
)

// Report mirrors Table V: the resource usage of the synthesised design
// against the device's capacity.
type Report struct {
	Device          Device
	LogicALMs       int
	BlockMemoryBits int
	Registers       int
	FmaxMHz         float64
	Pins            int
}

// LogicUtilisation returns the fraction of device ALMs used.
func (r Report) LogicUtilisation() float64 {
	return float64(r.LogicALMs) / float64(r.Device.ALMs)
}

// MemoryUtilisation returns the fraction of device block memory used. The
// paper reports 4% for the default architecture.
func (r Report) MemoryUtilisation() float64 {
	return float64(r.BlockMemoryBits) / float64(r.Device.BlockMemoryBits)
}

// String renders the report in the shape of Table V.
func (r Report) String() string {
	return fmt.Sprintf(
		"Logical Utilization      %d / %d (%.1f%%)\n"+
			"Total block memory bits  %d / %d (%.1f%%)\n"+
			"Total registers          %d\n"+
			"Maximum Frequency        %.2f MHz\n"+
			"Total Number Pins        %d / %d",
		r.LogicALMs, r.Device.ALMs, 100*r.LogicUtilisation(),
		r.BlockMemoryBits, r.Device.BlockMemoryBits, 100*r.MemoryUtilisation(),
		r.Registers,
		r.FmaxMHz,
		r.Pins, r.Device.Pins)
}

// Estimate applies the cost model to the architecture specification for the
// given device.
func Estimate(spec ArchSpec, device Device) (Report, error) {
	if err := spec.Validate(); err != nil {
		return Report{}, err
	}
	logic := spec.MemoryBlocks*ALMsPerMemoryBlock +
		spec.Comparators*ALMsPerComparator +
		spec.HashUnits*ALMsPerHashUnit +
		int(float64(spec.DatapathBits)*ALMsPerDatapathBit)
	registers := spec.RegisterFileBits +
		int(float64(spec.PipelineStages*spec.DatapathBits)*RegistersPerStageBit)
	fmax := BaseFmaxMHz / (1 + FmaxDegradationPerBlock*float64(spec.MemoryBlocks)*float64(spec.PipelineStages))
	pins := spec.HeaderBits + ControlPins
	return Report{
		Device:          device,
		LogicALMs:       logic,
		BlockMemoryBits: spec.BlockMemoryBits,
		Registers:       registers,
		FmaxMHz:         fmax,
		Pins:            pins,
	}, nil
}
