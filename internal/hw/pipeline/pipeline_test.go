package pipeline

import (
	"math"
	"testing"
)

const fmaxHz = 133.51e6 // the paper's synthesised clock (Table V)

// mbtStages reproduces the lookup pipeline of Fig. 3 with the MBT selected:
// header split/dispatch, parallel field lookup dominated by the 6-cycle MBT,
// one cycle to fetch the label list pointer, two cycles of final result
// processing. All stages are fully pipelined.
func mbtStages() []Stage {
	return []Stage{
		{Name: "split+dispatch", LatencyCycles: 1, InitiationInterval: 1},
		{Name: "field lookup (MBT)", LatencyCycles: 6, InitiationInterval: 1},
		{Name: "label fetch", LatencyCycles: 1, InitiationInterval: 1},
		{Name: "combine+rule filter", LatencyCycles: 2, InitiationInterval: 1},
	}
}

// bstStages is the same pipeline with the BST selected: the IP lookup needs
// up to 16 sequential memory accesses, so its initiation interval equals its
// latency.
func bstStages() []Stage {
	return []Stage{
		{Name: "split+dispatch", LatencyCycles: 1, InitiationInterval: 1},
		{Name: "field lookup (BST)", LatencyCycles: 16, InitiationInterval: 16},
		{Name: "label fetch", LatencyCycles: 1, InitiationInterval: 1},
		{Name: "combine+rule filter", LatencyCycles: 2, InitiationInterval: 1},
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New("empty", fmaxHz); err == nil {
		t.Error("New with no stages should fail")
	}
	if _, err := New("bad clock", 0, Stage{Name: "s", LatencyCycles: 1, InitiationInterval: 1}); err == nil {
		t.Error("New with zero clock should fail")
	}
	badStages := []Stage{
		{Name: "zero latency", LatencyCycles: 0, InitiationInterval: 1},
		{Name: "zero interval", LatencyCycles: 1, InitiationInterval: 0},
		{Name: "interval exceeds latency", LatencyCycles: 2, InitiationInterval: 3},
	}
	for _, s := range badStages {
		if _, err := New("bad", fmaxHz, s); err == nil {
			t.Errorf("New with stage %+v should fail", s)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("MustNew with invalid input did not panic")
		}
	}()
	MustNew("bad", 0)
}

func TestMBTPipelineLatencyAndThroughput(t *testing.T) {
	p := MustNew("lookup-mbt", fmaxHz, mbtStages()...)
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
	if p.Name() != "lookup-mbt" || p.ClockHz() != fmaxHz {
		t.Error("accessors wrong")
	}
}

func TestBSTPipelineThroughput(t *testing.T) {
	p := MustNew("lookup-bst", fmaxHz, bstStages()...)
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
}

func TestStagesReturnsCopy(t *testing.T) {
	p := MustNew("copy", fmaxHz, mbtStages()...)
	stages := p.Stages()
	stages[0].Name = "mutated"
	if p.Stages()[0].Name == "mutated" {
		t.Error("Stages() exposed internal state")
	}
}
