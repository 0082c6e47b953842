package bench

import (
	"testing"

	"sdnpc/internal/core"
)

// loadedClassifier builds a classifier serving the named engine with the
// small workload's rules installed.
func loadedClassifier(t *testing.T, engineName string, mode core.CombineMode) (*core.Classifier, Workload) {
	t.Helper()
	w := smallWorkload()
	cfg := EngineConfig(engineName)
	cfg.CombineMode = mode
	c, err := core.New(cfg)
	if err != nil {
		t.Fatalf("New(%s): %v", engineName, err)
	}
	if _, err := c.InstallRuleSet(w.RuleSet); err != nil {
		t.Fatalf("InstallRuleSet: %v", err)
	}
	return c, w
}

func TestLatencyModelMatchesFigure3(t *testing.T) {
	// MBT: 1 dispatch + 6 trie + 1 label fetch + 2 result = 10 cycles.
	// BST: 1 + 16 + 1 + 2 = 20 cycles. The single-probe mode presents one
	// combination, so every lookup costs the pipeline latency alone.
	for _, tc := range []struct {
		engine string
		cycles int
		ii     int
	}{{"mbt", 10, 1}, {"bst", 20, 16}} {
		c, w := loadedClassifier(t, tc.engine, core.CombineHPML)
		rep := c.Report()
		p := Pipeline(rep)
		if p.LatencyCycles() != tc.cycles || p.BottleneckInterval() != tc.ii {
			t.Errorf("%s pipeline: %d cycles, II %d; want %d, II %d",
				tc.engine, p.LatencyCycles(), p.BottleneckInterval(), tc.cycles, tc.ii)
		}
		for _, h := range w.Trace[:20] {
			if got := LookupCycles(rep, c.Lookup(h)); got != tc.cycles {
				t.Fatalf("%s lookup latency = %d cycles, want %d", tc.engine, got, tc.cycles)
			}
		}
	}
}

// TestLookupCyclesFormula pins the per-lookup formula the engine sweep
// averages: on the field tier the pipeline latency plus one cycle per label
// combination beyond the first, on the packet tier dispatch + one cycle per
// access + result select.
func TestLookupCyclesFormula(t *testing.T) {
	c, w := loadedClassifier(t, "mbt", core.CombineCrossProduct)
	rep := c.Report()
	crossProducts := 0
	for _, h := range w.Trace {
		r := c.Lookup(h)
		want := 10
		if r.Combinations > 1 {
			want += r.Combinations - 1
			crossProducts++
		}
		if got := LookupCycles(rep, r); got != want {
			t.Fatalf("mbt lookup with %d combinations = %d cycles, want %d", r.Combinations, got, want)
		}
	}
	if crossProducts == 0 {
		t.Error("no lookup presented more than one label combination")
	}

	c, w = loadedClassifier(t, "dcfl", core.CombineCrossProduct)
	rep = c.Report()
	if n := len(Pipeline(rep).Stages()); n != 3 {
		t.Errorf("dcfl pipeline has %d stages, want 3 (dispatch, packet lookup, result select)", n)
	}
	for _, h := range w.Trace {
		r := c.Lookup(h)
		if got, want := LookupCycles(rep, r), 1+r.FieldAccesses+1; got != want {
			t.Fatalf("dcfl lookup with %d accesses = %d cycles, want %d", r.FieldAccesses, got, want)
		}
	}
}

func TestThroughputMatchesTableVII(t *testing.T) {
	c := core.MustNew(core.DefaultConfig())
	// Table VII: 42.73 Gbps with the MBT, 2.67 Gbps with the BST, for
	// 40-byte packets at 133.51 MHz.
	p := Pipeline(c.Report())
	if got := p.ThroughputGbps(40); got < 42.5 || got > 43.0 {
		t.Errorf("MBT throughput = %.2f Gbps, want ~42.7", got)
	}
	if got := p.LookupsPerSecond(); got < 133e6 || got > 134e6 {
		t.Errorf("MBT lookup rate = %.0f /s, want ~133.51M", got)
	}
	// The conclusion's claim: >100 Gbps at 100-byte packets with the MBT.
	if got := p.ThroughputGbps(100); got < 100 {
		t.Errorf("MBT throughput at 100-byte packets = %.2f Gbps, want > 100", got)
	}
	if err := c.SelectEngine("bst"); err != nil {
		t.Fatal(err)
	}
	if got := Pipeline(c.Report()).ThroughputGbps(40); got < 2.6 || got > 2.75 {
		t.Errorf("BST throughput = %.2f Gbps, want ~2.67", got)
	}
}

func TestArchSpecAndSynthesis(t *testing.T) {
	c := core.MustNew(core.DefaultConfig())
	spec := ArchSpec(c.Config(), c.Report())
	if spec.BlockMemoryBits < 2000000 || spec.BlockMemoryBits > 2200000 {
		t.Errorf("BlockMemoryBits = %d, want ~2.1M", spec.BlockMemoryBits)
	}
	if spec.MemoryBlocks != 3*4+7+1+1 {
		t.Errorf("MemoryBlocks = %d, want 21", spec.MemoryBlocks)
	}
	if spec.PipelineStages != 10 {
		t.Errorf("PipelineStages = %d, want 10", spec.PipelineStages)
	}
	report, err := Synthesise(c.Config(), c.Report())
	if err != nil {
		t.Fatalf("Synthesise: %v", err)
	}
	// Table V: ~4% of the device's 54.5 Mbit block memory.
	if util := report.MemoryUtilisation(); util < 0.03 || util > 0.05 {
		t.Errorf("memory utilisation = %.3f, want ~0.04", util)
	}
	// The cost model is calibrated to land near the published synthesis
	// figures: 79,835 ALMs, 129,273 registers, 133.51 MHz, 500 pins.
	within := func(got, want, tolerance float64) bool {
		return got >= want*(1-tolerance) && got <= want*(1+tolerance)
	}
	if !within(float64(report.LogicALMs), 79835, 0.10) {
		t.Errorf("LogicALMs = %d, want within 10%% of 79835", report.LogicALMs)
	}
	if !within(float64(report.Registers), 129273, 0.10) {
		t.Errorf("Registers = %d, want within 10%% of 129273", report.Registers)
	}
	if !within(report.FmaxMHz, 133.51, 0.10) {
		t.Errorf("FmaxMHz = %.2f, want within 10%% of 133.51", report.FmaxMHz)
	}
	if !within(float64(report.Pins), 500, 0.15) {
		t.Errorf("Pins = %d, want within 15%% of 500", report.Pins)
	}
}
