// Package pipeline models the clocked behaviour of the lookup architecture:
// per-stage latencies, initiation intervals, end-to-end packet latency and
// the throughput obtained at a given clock frequency.
//
// The paper's performance figures (§V.B, Tables VI and VII) are all derived
// from this kind of accounting: the MBT engine has a 6-cycle latency but is
// fully pipelined (initiation interval 1), the BST needs up to 16 sequential
// memory accesses per packet (initiation interval 16), and the surrounding
// phases add a fixed number of cycles. Throughput in Gbps is the packet rate
// at the synthesised clock frequency multiplied by the packet size.
package pipeline

import "fmt"

// Stage is one phase of the lookup pipeline.
type Stage struct {
	// Name identifies the stage in reports, e.g. "field lookup".
	Name string
	// LatencyCycles is the number of clock cycles a single packet spends in
	// the stage.
	LatencyCycles int
	// InitiationInterval is the number of cycles between consecutive packets
	// entering the stage: 1 for a fully pipelined stage, LatencyCycles for a
	// stage that must finish one packet before accepting the next.
	InitiationInterval int
}

// Validate reports whether the stage is well formed.
func (s Stage) Validate() error {
	if s.LatencyCycles < 1 {
		return fmt.Errorf("pipeline: stage %q latency %d must be at least 1", s.Name, s.LatencyCycles)
	}
	if s.InitiationInterval < 1 {
		return fmt.Errorf("pipeline: stage %q initiation interval %d must be at least 1", s.Name, s.InitiationInterval)
	}
	if s.InitiationInterval > s.LatencyCycles {
		return fmt.Errorf("pipeline: stage %q initiation interval %d exceeds latency %d",
			s.Name, s.InitiationInterval, s.LatencyCycles)
	}
	return nil
}

// Pipeline is an ordered sequence of stages driven by a common clock.
type Pipeline struct {
	name   string
	fmaxHz float64
	stages []Stage
}

// New creates a pipeline with the given name and clock frequency in Hz. The
// stage list must be non-empty and every stage valid.
func New(name string, fmaxHz float64, stages ...Stage) (*Pipeline, error) {
	if fmaxHz <= 0 {
		return nil, fmt.Errorf("pipeline: %q clock frequency must be positive, got %v", name, fmaxHz)
	}
	if len(stages) == 0 {
		return nil, fmt.Errorf("pipeline: %q needs at least one stage", name)
	}
	for _, s := range stages {
		if err := s.Validate(); err != nil {
			return nil, err
		}
	}
	p := &Pipeline{name: name, fmaxHz: fmaxHz, stages: make([]Stage, len(stages))}
	copy(p.stages, stages)
	return p, nil
}

// MustNew is like New but panics on error; it is intended for architecture
// constants validated by tests.
func MustNew(name string, fmaxHz float64, stages ...Stage) *Pipeline {
	p, err := New(name, fmaxHz, stages...)
	if err != nil {
		panic(err)
	}
	return p
}

// Name returns the pipeline name.
func (p *Pipeline) Name() string { return p.name }

// ClockHz returns the clock frequency in Hz.
func (p *Pipeline) ClockHz() float64 { return p.fmaxHz }

// Stages returns a copy of the stage list.
func (p *Pipeline) Stages() []Stage {
	out := make([]Stage, len(p.stages))
	copy(out, p.stages)
	return out
}

// LatencyCycles returns the end-to-end latency of one packet in clock cycles:
// the sum of per-stage latencies.
func (p *Pipeline) LatencyCycles() int {
	total := 0
	for _, s := range p.stages {
		total += s.LatencyCycles
	}
	return total
}

// BottleneckInterval returns the largest initiation interval across stages,
// which bounds the packet rate.
func (p *Pipeline) BottleneckInterval() int {
	maxII := 1
	for _, s := range p.stages {
		if s.InitiationInterval > maxII {
			maxII = s.InitiationInterval
		}
	}
	return maxII
}

// LookupsPerSecond returns the sustained packet (lookup) rate.
func (p *Pipeline) LookupsPerSecond() float64 {
	return p.fmaxHz / float64(p.BottleneckInterval())
}

// ThroughputGbps returns the sustained line rate for the given packet size in
// bytes, the metric reported in Table VII (computed there for 40-byte
// packets) and in the conclusion (for 100-byte packets).
func (p *Pipeline) ThroughputGbps(packetBytes int) float64 {
	bitsPerPacket := float64(packetBytes) * 8
	return p.LookupsPerSecond() * bitsPerPacket / 1e9
}
