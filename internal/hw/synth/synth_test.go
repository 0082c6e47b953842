package synth

import (
	"strings"
	"testing"
)

// referenceSpec is a representative architecture specification in the same
// region as the paper's default geometry; exact Table V reproduction is
// asserted in internal/core, which owns the default geometry.
func referenceSpec() ArchSpec {
	return ArchSpec{
		BlockMemoryBits:  2 * 1024 * 1024,
		MemoryBlocks:     24,
		PipelineStages:   10,
		DatapathBits:     512,
		RegisterFileBits: 10000,
		Comparators:      256,
		HashUnits:        1,
		HeaderBits:       448,
	}
}

func TestStratixVDevice(t *testing.T) {
	d := StratixV()
	if d.ALMs != 225400 {
		t.Errorf("ALMs = %d, want 225400 (Table V denominator)", d.ALMs)
	}
	if d.BlockMemoryBits != 54476800 {
		t.Errorf("BlockMemoryBits = %d, want 54476800 (Table V denominator)", d.BlockMemoryBits)
	}
	if d.Pins != 908 {
		t.Errorf("Pins = %d, want 908 (Table V denominator)", d.Pins)
	}
	if !strings.Contains(d.Name, "Stratix V") {
		t.Errorf("device name %q should identify Stratix V", d.Name)
	}
}

func TestEstimateValidation(t *testing.T) {
	bad := []ArchSpec{
		{},
		{BlockMemoryBits: 100},
		{BlockMemoryBits: 100, MemoryBlocks: 1},
	}
	for _, spec := range bad {
		if _, err := Estimate(spec, StratixV()); err == nil {
			t.Errorf("Estimate(%+v) should fail", spec)
		}
	}
}

func TestEstimateBasicProperties(t *testing.T) {
	spec := referenceSpec()
	report, err := Estimate(spec, StratixV())
	if err != nil {
		t.Fatalf("Estimate: %v", err)
	}
	if report.BlockMemoryBits != spec.BlockMemoryBits {
		t.Errorf("BlockMemoryBits = %d, want the spec value %d", report.BlockMemoryBits, spec.BlockMemoryBits)
	}
	if report.Pins != spec.HeaderBits+ControlPins {
		t.Errorf("Pins = %d, want %d", report.Pins, spec.HeaderBits+ControlPins)
	}
	if report.LogicALMs <= 0 || report.Registers <= 0 {
		t.Errorf("non-positive resource estimate: %+v", report)
	}
	if report.FmaxMHz <= 0 || report.FmaxMHz > BaseFmaxMHz {
		t.Errorf("FmaxMHz = %v, want in (0, %v]", report.FmaxMHz, BaseFmaxMHz)
	}
	if report.MemoryUtilisation() <= 0 || report.MemoryUtilisation() >= 1 {
		t.Errorf("MemoryUtilisation() = %v", report.MemoryUtilisation())
	}
	if report.LogicUtilisation() <= 0 {
		t.Error("logic utilisation must be positive")
	}
	out := report.String()
	for _, want := range []string{"Logical Utilization", "Total block memory bits", "Maximum Frequency", "Total Number Pins"} {
		if !strings.Contains(out, want) {
			t.Errorf("String() missing %q:\n%s", want, out)
		}
	}
}

func TestEstimateScalesWithGeometry(t *testing.T) {
	base := referenceSpec()
	baseReport, err := Estimate(base, StratixV())
	if err != nil {
		t.Fatal(err)
	}

	// Doubling the rule capacity (block memory) must not change logic but
	// must double reported memory bits.
	bigger := base
	bigger.BlockMemoryBits *= 2
	biggerReport, err := Estimate(bigger, StratixV())
	if err != nil {
		t.Fatal(err)
	}
	if biggerReport.BlockMemoryBits != 2*baseReport.BlockMemoryBits {
		t.Errorf("memory bits did not scale: %d vs %d", biggerReport.BlockMemoryBits, baseReport.BlockMemoryBits)
	}
	if biggerReport.LogicALMs != baseReport.LogicALMs {
		t.Errorf("logic changed when only memory capacity grew: %d vs %d", biggerReport.LogicALMs, baseReport.LogicALMs)
	}

	// Adding memory blocks must increase logic and decrease Fmax.
	moreBlocks := base
	moreBlocks.MemoryBlocks *= 2
	moreReport, err := Estimate(moreBlocks, StratixV())
	if err != nil {
		t.Fatal(err)
	}
	if moreReport.LogicALMs <= baseReport.LogicALMs {
		t.Error("logic did not grow with more memory blocks")
	}
	if moreReport.FmaxMHz >= baseReport.FmaxMHz {
		t.Error("Fmax did not degrade with more memory blocks")
	}

	// A wider datapath must increase registers.
	wider := base
	wider.DatapathBits *= 2
	widerReport, err := Estimate(wider, StratixV())
	if err != nil {
		t.Fatal(err)
	}
	if widerReport.Registers <= baseReport.Registers {
		t.Error("registers did not grow with a wider datapath")
	}
}
