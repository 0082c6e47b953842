// Package pipeline_test checks the Fig. 3 lookup pipeline accounting of the
// FPGA model in internal/bench/model.go through its exported API. The
// directory holds tests only: the model itself lives in internal/bench.
package pipeline_test

import (
	"math"
	"testing"

	"sdnpc/internal/bench"
	"sdnpc/internal/core"
)

// mbtStages reproduces the lookup pipeline of Fig. 3 with the MBT selected:
// header split/dispatch, parallel field lookup dominated by the 6-cycle MBT,
// one cycle to fetch the label list pointer, two cycles of final result
// processing. All stages are fully pipelined.
func mbtStages() bench.Pipeline {
	return bench.Pipeline{
		{Name: "split+dispatch", LatencyCycles: 1, InitiationInterval: 1},
		{Name: "field lookup (MBT)", LatencyCycles: 6, InitiationInterval: 1},
		{Name: "label fetch", LatencyCycles: 1, InitiationInterval: 1},
		{Name: "combine+rule filter", LatencyCycles: 2, InitiationInterval: 1},
	}
}

// bstStages is the same pipeline with the BST selected: the IP lookup needs
// up to 16 sequential memory accesses, so its initiation interval equals its
// latency.
func bstStages() bench.Pipeline {
	return bench.Pipeline{
		{Name: "split+dispatch", LatencyCycles: 1, InitiationInterval: 1},
		{Name: "field lookup (BST)", LatencyCycles: 16, InitiationInterval: 16},
		{Name: "label fetch", LatencyCycles: 1, InitiationInterval: 1},
		{Name: "combine+rule filter", LatencyCycles: 2, InitiationInterval: 1},
	}
}

// servedPipeline is the model's pipeline for a default classifier serving
// the named IP engine.
func servedPipeline(t *testing.T, engineName string) bench.Pipeline {
	t.Helper()
	c := core.MustNew(core.DefaultConfig())
	if err := c.SelectEngine(engineName); err != nil {
		t.Fatal(err)
	}
	return bench.LookupPipeline(c.Report())
}

func TestMBTPipelineLatencyAndThroughput(t *testing.T) {
	p := mbtStages()
	// §V.B: MBT latency 6 cycles, +1 label fetch, +2 result, +1 dispatch.
	if got, want := p.LatencyCycles(), 10; got != want {
		t.Errorf("LatencyCycles() = %d, want %d", got, want)
	}
	if got := p.BottleneckInterval(); got != 1 {
		t.Errorf("BottleneckInterval() = %d, want 1 (fully pipelined)", got)
	}
	// 133.51 MHz * 1 lookup/cycle = 133.51 M lookups/s (the paper's
	// conclusion quotes "133 million lookups per second").
	if got := p.LookupsPerSecond(); math.Abs(got-133.51e6) > 1 {
		t.Errorf("LookupsPerSecond() = %v, want 133.51e6", got)
	}
	// Table VII: 42.73 Gbps at 40-byte packets.
	if got := p.ThroughputGbps(40); math.Abs(got-42.72) > 0.05 {
		t.Errorf("ThroughputGbps(40) = %v, want ~42.72", got)
	}
	// Conclusion: >100 Gbps at 100-byte packets.
	if got := p.ThroughputGbps(100); got < 100 {
		t.Errorf("ThroughputGbps(100) = %v, want > 100", got)
	}
	// The model builds the same accounting for a classifier serving the MBT.
	served := servedPipeline(t, "mbt")
	if served.LatencyCycles() != p.LatencyCycles() || served.BottleneckInterval() != p.BottleneckInterval() {
		t.Errorf("served MBT pipeline %+v, want latency %d and interval %d",
			served, p.LatencyCycles(), p.BottleneckInterval())
	}
}

func TestBSTPipelineThroughput(t *testing.T) {
	p := bstStages()
	if got := p.BottleneckInterval(); got != 16 {
		t.Errorf("BottleneckInterval() = %d, want 16", got)
	}
	// Table VII: 2.67 Gbps at 40-byte packets for the BST configuration.
	if got := p.ThroughputGbps(40); math.Abs(got-2.67) > 0.01 {
		t.Errorf("ThroughputGbps(40) = %v, want ~2.67", got)
	}
	if got, want := p.LatencyCycles(), 20; got != want {
		t.Errorf("LatencyCycles() = %d, want %d", got, want)
	}
	// The model builds the same accounting for a classifier serving the BST.
	served := servedPipeline(t, "bst")
	if served.LatencyCycles() != p.LatencyCycles() || served.BottleneckInterval() != p.BottleneckInterval() {
		t.Errorf("served BST pipeline %+v, want latency %d and interval %d",
			served, p.LatencyCycles(), p.BottleneckInterval())
	}
}
