// The reader scaling gate lives in the external test package so it
// can drive internal/bench.ThroughputSweep directly (the same driver the
// experiments binary uses).
package sdnpc_test

import (
	"os"
	"runtime"
	"strconv"
	"testing"

	"sdnpc/internal/bench"
	"sdnpc/internal/classbench"
)

// TestReaderScalingGate is the CI scaling gate behind
// scripts/check_scaling.sh: it runs ThroughputSweep at 1 worker and at NumCPU
// workers, one worker-pinned Reader per worker, and fails when a cell's
// NumCPU-worker speedup over its own 1-worker row falls below the floor. Each
// cell holds a configuration to what it is for:
//
//   - shared: an uncached mbt classifier. Lookups write nothing to the
//     published snapshot, so readers sharing it must scale on the slowest,
//     most access-heavy tier.
//   - cached: dcfl behind a 16384-entry microflow cache budget over a
//     Zipf(1.1) trace. The cache is what readers do write; each worker's
//     Reader fills its own lane's private share of the budget, which is what
//     the serving lanes are kept for.
//
// The floor defaults to 1.2x and can be overridden with SCALING_GATE_FLOOR
// for noisy or small runners.
//
// The gate is opt-in (SCALING_GATE=1): it is a timing assertion, so it
// belongs beside the benchmark regression job, not in every `go test` run.
func TestReaderScalingGate(t *testing.T) {
	if os.Getenv("SCALING_GATE") == "" {
		t.Skip("scaling gate is opt-in: set SCALING_GATE=1 (see scripts/check_scaling.sh)")
	}
	ncpu := runtime.NumCPU()
	if ncpu < 2 {
		t.Skip("scaling needs more than one CPU")
	}
	floor := 1.2
	if s := os.Getenv("SCALING_GATE_FLOOR"); s != "" {
		f, err := strconv.ParseFloat(s, 64)
		if err != nil || f <= 0 {
			t.Fatalf("invalid SCALING_GATE_FLOOR %q", s)
		}
		floor = f
	}

	for _, cell := range []struct {
		name     string
		workload bench.Workload
		opts     bench.ThroughputOptions
	}{
		{
			name:     "shared",
			workload: bench.NewWorkload(classbench.ACL, classbench.Size1K, 20000),
			// About a second per row at the field tier's ~1 µs lookup: a run
			// of tens of milliseconds measures worker start-up skew, not
			// scaling.
			opts: bench.ThroughputOptions{Engines: []string{"mbt"}, PacketsPerWorker: 1000000},
		},
		{
			name:     "cached",
			workload: bench.NewZipfWorkload(classbench.ACL, classbench.Size1K, 100000, 1.1),
			opts: bench.ThroughputOptions{
				Engines: []string{"dcfl"}, PacketsPerWorker: 1000000,
				CacheCapacity: 16384,
			},
		},
	} {
		t.Run(cell.name, func(t *testing.T) {
			cell.opts.Workers = []int{1, ncpu}
			rows, err := bench.ThroughputSweep(cell.workload, cell.opts)
			if err != nil {
				t.Fatal(err)
			}
			// The gated row: NumCPU workers, cached exactly when the cell
			// configures a cache.
			var top *bench.ThroughputRow
			for i := range rows {
				r := &rows[i]
				if r.Workers == ncpu && r.Cached == (cell.opts.CacheCapacity > 0) {
					top = r
				}
			}
			if top == nil {
				t.Fatalf("sweep produced no %s %d-worker row: %+v", cell.name, ncpu, rows)
			}
			t.Logf("%s %s @%d workers (cache hit rate %.2f): %.0f pkts/s (%.2fx vs 1 worker, worker spread %.0f..%.0f pkts/s)",
				cell.name, top.Engine, ncpu, top.CacheHitRate, top.PacketsPerSec, top.SpeedupVs1,
				top.MinWorkerPPS, top.MaxWorkerPPS)
			if top.SpeedupVs1 < floor {
				t.Fatalf("%s speedup at %d workers is %.2fx, below the %.2fx floor",
					cell.name, ncpu, top.SpeedupVs1, floor)
			}
		})
	}
}
