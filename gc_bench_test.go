// BenchmarkLookupUnderGC certifies the flat-memory claim the snapshot layout
// makes: a published snapshot is pointer-free slices and copy-on-write
// chunks behind directories of one pointer per 64 elements, so the garbage
// collector barely scans the lookup structures and finds no per-packet
// garbage to chase, and lookup tail latency barely moves when the rest of
// the process churns the heap.
package sdnpc_test

import (
	"runtime"
	"sort"
	"testing"
	"time"

	"sdnpc/internal/bench"
	"sdnpc/internal/core"
	"sdnpc/internal/engine"
)

// BenchmarkLookupUnderGC measures single-packet lookup latency for every
// selectable engine twice: quiet (no background allocation) and churn (an
// allocation antagonist goroutine continuously creating and dropping heap
// garbage, forcing GC cycles through the measurement). Each run reports the
// observed p50 and p99 in nanoseconds; the flat hot path's contract is that
// the churn rows stay close to their quiet baselines, because the serving
// path itself gives the collector nothing to do.
func BenchmarkLookupUnderGC(b *testing.B) {
	for _, name := range engine.SelectableNames() {
		c := core.MustNew(bench.EngineConfig(name))
		if _, err := c.InstallRuleSet(benchSmallWorkload.RuleSet); err != nil {
			b.Fatal(err)
		}
		trace := benchSmallWorkload.Trace
		for _, h := range trace {
			c.Lookup(h) // warm the pooled scratch and the cache
		}
		for _, churn := range []bool{false, true} {
			mode := "quiet"
			if churn {
				mode = "churn"
			}
			b.Run(name+"/"+mode, func(b *testing.B) {
				stop := make(chan struct{})
				done := make(chan struct{})
				if churn {
					go func() {
						// The antagonist holds a rolling window of sizeable
						// buffers: a steady mix of fresh garbage and
						// still-live heap keeps the collector marking and
						// sweeping for the whole measurement.
						defer close(done)
						window := make([][]byte, 64)
						i := 0
						for {
							select {
							case <-stop:
								return
							default:
							}
							window[i%len(window)] = make([]byte, 64<<10)
							i++
							runtime.Gosched()
						}
					}()
				} else {
					close(done)
				}
				lat := make([]int64, b.N)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					start := time.Now()
					c.Lookup(trace[i%len(trace)])
					lat[i] = int64(time.Since(start))
				}
				b.StopTimer()
				close(stop)
				<-done
				sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
				b.ReportMetric(float64(lat[len(lat)/2]), "p50-ns")
				b.ReportMetric(float64(lat[len(lat)*99/100]), "p99-ns")
			})
		}
	}
}
