package bench

import (
	"testing"

	"sdnpc/internal/core"
	"sdnpc/internal/fivetuple"
)

// loadedClassifier builds a classifier serving the named engine with the
// small workload's rules installed.
func loadedClassifier(t *testing.T, engineName string) (*core.Classifier, Workload) {
	t.Helper()
	w := smallWorkload()
	c, err := core.New(EngineConfig(engineName))
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
	// BST: 1 + 16 + 1 + 2 = 20 cycles. A lookup that presents one label
	// combination costs the pipeline latency alone.
	for _, tc := range []struct {
		engine string
		cycles int
		ii     int
	}{{"mbt", 10, 1}, {"bst", 20, 16}} {
		c, w := loadedClassifier(t, tc.engine)
		rep := c.Report()
		p := LookupPipeline(rep)
		if p.LatencyCycles() != tc.cycles || p.BottleneckInterval() != tc.ii {
			t.Errorf("%s pipeline: %d cycles, II %d; want %d, II %d",
				tc.engine, p.LatencyCycles(), p.BottleneckInterval(), tc.cycles, tc.ii)
		}
		// One wildcard rule: every lookup presents one combination.
		one, err := core.New(EngineConfig(tc.engine))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := one.InsertRule(fivetuple.Wildcard(0, fivetuple.ActionForward)); err != nil {
			t.Fatal(err)
		}
		for _, h := range w.Trace[:20] {
			r := one.Lookup(h)
			if got := LookupCycles(one.Report(), r); r.Combinations != 1 || got != tc.cycles {
				t.Fatalf("%s lookup latency = %d cycles over %d combinations, want %d over 1", tc.engine, got, r.Combinations, tc.cycles)
			}
		}
	}
}

// TestLookupCyclesFormula pins the per-lookup formula the engine sweep
// averages: on the field tier the pipeline latency plus one cycle per label
// combination beyond the first, on the packet tier dispatch + one cycle per
// access + result select.
func TestLookupCyclesFormula(t *testing.T) {
	c, w := loadedClassifier(t, "mbt")
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

	c, w = loadedClassifier(t, "dcfl")
	rep = c.Report()
	if n := len(LookupPipeline(rep)); n != 3 {
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
	p := LookupPipeline(c.Report())
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
	if got := LookupPipeline(c.Report()).ThroughputGbps(40); got < 2.6 || got > 2.75 {
		t.Errorf("BST throughput = %.2f Gbps, want ~2.67", got)
	}
}

func TestArchSpecAndSynthesis(t *testing.T) {
	c := core.MustNew(core.DefaultConfig())
	spec := ArchSpec(c.Report())
	if spec.BlockMemoryBits < 2000000 || spec.BlockMemoryBits > 2200000 {
		t.Errorf("BlockMemoryBits = %d, want ~2.1M", spec.BlockMemoryBits)
	}
	if spec.MemoryBlocks != 3*4+7+1+1 {
		t.Errorf("MemoryBlocks = %d, want 21", spec.MemoryBlocks)
	}
	if spec.PipelineStages != 10 {
		t.Errorf("PipelineStages = %d, want 10", spec.PipelineStages)
	}
	report := Synthesise(c.Report())
	// Table V's denominators are the Stratix V's resources.
	if d := report.Device; d.ALMs != 225400 || d.BlockMemoryBits != 54476800 || d.Pins != 908 {
		t.Errorf("device = %+v, want 225400 ALMs, 54476800 block memory bits, 908 pins", d)
	}
	// Block memory and pins follow exactly from the specification.
	if report.BlockMemoryBits != spec.BlockMemoryBits || report.Pins != spec.HeaderBits+controlPins {
		t.Errorf("block memory %d bits, %d pins; want the spec's %d bits and %d header + control pins",
			report.BlockMemoryBits, report.Pins, spec.BlockMemoryBits, spec.HeaderBits+controlPins)
	}
	if report.FmaxMHz <= 0 || report.FmaxMHz > baseFmaxMHz {
		t.Errorf("FmaxMHz = %v, want in (0, %v]", report.FmaxMHz, baseFmaxMHz)
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

// TestEstimateScalesWithGeometry pins the relative behaviour the synthesis
// cost model is for: more block memory changes only the memory figure, more
// memory blocks cost logic and clock, a wider datapath costs registers.
func TestEstimateScalesWithGeometry(t *testing.T) {
	base := ArchSpec(core.MustNew(core.DefaultConfig()).Report())
	baseReport := estimate(base)

	bigger := base
	bigger.BlockMemoryBits *= 2
	if r := estimate(bigger); r.BlockMemoryBits != 2*baseReport.BlockMemoryBits || r.LogicALMs != baseReport.LogicALMs {
		t.Errorf("doubling block memory: %d bits, %d ALMs; want %d bits and the unchanged %d ALMs",
			r.BlockMemoryBits, r.LogicALMs, 2*baseReport.BlockMemoryBits, baseReport.LogicALMs)
	}
	moreBlocks := base
	moreBlocks.MemoryBlocks *= 2
	if r := estimate(moreBlocks); r.LogicALMs <= baseReport.LogicALMs || r.FmaxMHz >= baseReport.FmaxMHz {
		t.Errorf("doubling memory blocks: %d ALMs at %.2f MHz, want more than %d ALMs at less than %.2f MHz",
			r.LogicALMs, r.FmaxMHz, baseReport.LogicALMs, baseReport.FmaxMHz)
	}
	wider := base
	wider.DatapathBits *= 2
	if r := estimate(wider); r.Registers <= baseReport.Registers {
		t.Errorf("doubling the datapath: %d registers, want more than %d", r.Registers, baseReport.Registers)
	}
}

// TestProvisionedMemoryBudget pins the provisioned block memory, which is
// the same under every rule set: ~2.1 Mbit in all (Tables V and VII), the
// MBT family of three trie levels per IP segment, and the shared level-2
// blocks a BST maps onto (Fig. 5). A loaded classifier uses less than that.
func TestProvisionedMemoryBudget(t *testing.T) {
	if mbtProvisionedBits != 4*(32+1024+3288)*32 || bstProvisionedBits != 4*1024*32 {
		t.Errorf("MBT / BST provisioned bits = %d / %d", mbtProvisionedBits, bstProvisionedBits)
	}
	if got := ipEngineProvisionedBits("bst"); got != bstProvisionedBits {
		t.Errorf("bst maps onto %d provisioned bits, want the shared level-2 blocks' %d", got, bstProvisionedBits)
	}
	if got := ipEngineProvisionedBits("mbt"); got != mbtProvisionedBits {
		t.Errorf("mbt maps onto %d provisioned bits, want the MBT family's %d", got, mbtProvisionedBits)
	}
	c, _ := loadedClassifier(t, "mbt")
	rep := c.Report()
	total := totalProvisionedBits(rep)
	if total < 2000000 || total > 2200000 {
		t.Errorf("provisioned block memory = %d bits, want ~2.1M", total)
	}
	if used := rep.Memory.TotalUsedBits(); used <= 0 || used >= total {
		t.Errorf("used bits %d out of range (0, %d)", used, total)
	}
}
