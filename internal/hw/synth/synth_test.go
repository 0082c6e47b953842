// Package synth_test checks the Table V synthesis estimate of the FPGA model
// in internal/bench/model.go through its exported API. The directory holds
// tests only: the model itself lives in internal/bench.
package synth_test

import (
	"testing"

	"sdnpc/internal/bench"
	"sdnpc/internal/core"
)

// controlPins is the model's clock, reset, configuration and handshake pin
// count, which the estimate adds to the header bits.
const controlPins = 52

// baseFmaxMHz is the model's clock of the unloaded datapath, the upper bound
// of any estimated Fmax.
const baseFmaxMHz = 200.0

// defaultReport is the report of a classifier with the paper's default
// architecture.
func defaultReport() core.Report {
	return core.MustNew(core.DefaultConfig()).Report()
}

func TestStratixVDevice(t *testing.T) {
	d := bench.Synthesise(defaultReport()).Device
	if d.ALMs != 225400 {
		t.Errorf("ALMs = %d, want 225400 (Table V denominator)", d.ALMs)
	}
	if d.BlockMemoryBits != 54476800 {
		t.Errorf("BlockMemoryBits = %d, want 54476800 (Table V denominator)", d.BlockMemoryBits)
	}
	if d.Pins != 908 {
		t.Errorf("Pins = %d, want 908 (Table V denominator)", d.Pins)
	}
}

func TestEstimateBasicProperties(t *testing.T) {
	rep := defaultReport()
	spec := bench.ArchSpec(rep)
	report := bench.Synthesise(rep)
	if report.BlockMemoryBits != spec.BlockMemoryBits {
		t.Errorf("BlockMemoryBits = %d, want the spec value %d", report.BlockMemoryBits, spec.BlockMemoryBits)
	}
	if report.Pins != spec.HeaderBits+controlPins {
		t.Errorf("Pins = %d, want %d", report.Pins, spec.HeaderBits+controlPins)
	}
	if report.LogicALMs <= 0 || report.Registers <= 0 {
		t.Errorf("non-positive resource estimate: %+v", report)
	}
	if report.FmaxMHz <= 0 || report.FmaxMHz > baseFmaxMHz {
		t.Errorf("FmaxMHz = %v, want in (0, %v]", report.FmaxMHz, baseFmaxMHz)
	}
	if report.MemoryUtilisation() <= 0 || report.MemoryUtilisation() >= 1 {
		t.Errorf("MemoryUtilisation() = %v", report.MemoryUtilisation())
	}
	if logic := float64(report.LogicALMs) / float64(report.Device.ALMs); logic <= 0 || logic >= 1 {
		t.Errorf("logic utilisation = %v, want in (0, 1)", logic)
	}
}
