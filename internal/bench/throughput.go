package bench

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"sdnpc/internal/core"
	"sdnpc/internal/engine"
	"sdnpc/internal/fivetuple"
)

// ThroughputOptions parameterises the concurrent serving-path driver.
type ThroughputOptions struct {
	// Engines restricts the sweep to the named engines; empty means every
	// selectable engine of both tiers.
	Engines []string
	// Workers lists the worker counts to sweep; empty means 1, 2, 4, ...
	// up to runtime.NumCPU().
	Workers []int
	// BatchSize is the LookupBatch size per call; <= 0 selects 64.
	BatchSize int
	// PacketsPerWorker is how many packets each worker replays; <= 0 selects
	// 50000.
	PacketsPerWorker int
	// CacheCapacity, when > 0, measures every (engine, workers) cell a
	// second time with the microflow cache enabled at this total entry
	// budget (split across the classifier's serving lanes), so the sweep
	// reports cached and uncached columns side by side.
	CacheCapacity int
	// CacheShards is the cache shard count for the cached cells; <= 0
	// selects the cache's default.
	CacheShards int
}

// ThroughputRow is the measured serving throughput of one (engine, workers)
// cell: real packets/second through the software model, and the measured
// wall-clock latency distribution of individual LookupBatch calls divided by
// the batch size.
type ThroughputRow struct {
	Engine          string
	Workers         int
	BatchSize       int
	Packets         int
	Elapsed         time.Duration
	PacketsPerSec   float64
	P50PerPacket    time.Duration
	P99PerPacket    time.Duration
	MatchedFraction float64
	// SpeedupVs1 is PacketsPerSec relative to the 1-worker row of the same
	// engine and cache setting (1.0 for the 1-worker row itself, 0 when no
	// such row ran).
	SpeedupVs1 float64
	// Cached marks rows measured with the microflow cache enabled.
	Cached bool
	// CacheHitRate is the fraction of lookups the cache answered (cached
	// rows only).
	CacheHitRate float64
	// MinWorkerPPS and MaxWorkerPPS are the slowest and fastest individual
	// worker's packets/second — the spread that makes lane imbalance
	// visible.
	MinWorkerPPS float64
	MaxWorkerPPS float64
	// Refused, when non-nil, is why the engine could not be built or
	// declined the rule set; the row then stands for the whole (engine,
	// cache setting) group and carries no measurement.
	Refused error
}

// defaultWorkerCounts doubles from 1 up to the CPU count, always including
// the CPU count itself.
func defaultWorkerCounts() []int {
	limit := runtime.NumCPU()
	if limit < 1 {
		limit = 1
	}
	out := []int{}
	for w := 1; w < limit; w *= 2 {
		out = append(out, w)
	}
	return append(out, limit)
}

// ThroughputSweep measures the concurrent serving path: for every selected
// engine it installs the workload's rule set once, then replays the trace
// from N goroutines, each calling LookupBatch through its own Reader of the
// shared classifier, for every N in the worker list. Unlike the cycle-accurate tables (which report what
// the modelled hardware would sustain), this reports what the software
// model actually serves — the number CI tracks for regressions. An engine
// that refuses the workload yields a Refused row and the sweep continues;
// an unknown engine name is an error.
func ThroughputSweep(w Workload, opts ThroughputOptions) ([]ThroughputRow, error) {
	engines := opts.Engines
	if len(engines) == 0 {
		engines = engine.SelectableNames()
	}
	for _, name := range engines {
		if _, ok := engine.Selectable(name); !ok {
			return nil, fmt.Errorf("bench: unknown engine %q (selectable: %v)", name, engine.SelectableNames())
		}
	}
	workers := opts.Workers
	if len(workers) == 0 {
		workers = defaultWorkerCounts()
	}
	batch := opts.BatchSize
	if batch <= 0 {
		batch = 64
	}
	perWorker := opts.PacketsPerWorker
	if perWorker <= 0 {
		perWorker = 50000
	}

	// Each configuration is its own speedup-normalisation group: cached rows
	// are normalised against the cached 1-worker row.
	rows := make([]ThroughputRow, 0, len(engines)*len(workers))
	for _, name := range engines {
		cfgs := []core.Config{EngineConfig(name)}
		if opts.CacheCapacity > 0 {
			cfgs = append(cfgs, CachedEngineConfig(name, opts.CacheShards, opts.CacheCapacity))
		}
		for _, cfg := range cfgs {
			engineRows := make([]ThroughputRow, 0, len(workers))
			for _, n := range workers {
				// Each cell gets a freshly built classifier: a shared one
				// would hand later worker counts a pre-warmed cache, making
				// hit rates and speedups depend on sweep order.
				c, err := buildClassifier(cfg, w.RuleSet)
				if err != nil {
					// A refusal does not depend on the worker count.
					engineRows = append(engineRows, ThroughputRow{Engine: name, Cached: cfg.CacheCapacity > 0, Refused: err})
					break
				}
				row := runThroughput(c, w.Trace, name, n, batch, perWorker)
				if rep := c.Report(); rep.CacheEnabled {
					row.Cached = true
					row.CacheHitRate = rep.Cache.HitRate()
				}
				engineRows = append(engineRows, row)
			}
			// Normalise speedups after the sweep so the 1-worker baseline is
			// found regardless of where it appears in the worker list.
			var base float64
			for _, row := range engineRows {
				if row.Workers == 1 {
					base = row.PacketsPerSec
					break
				}
			}
			for i := range engineRows {
				if base > 0 {
					engineRows[i].SpeedupVs1 = engineRows[i].PacketsPerSec / base
				}
			}
			rows = append(rows, engineRows...)
		}
	}
	return rows, nil
}

// runThroughput drives one (engine, workers) cell. Each worker replays its
// own offset of the shared trace in batches through a worker-pinned Reader
// (its own lane's cache and counters while workers <= lanes), recording the wall-clock time of every LookupBatch call; the
// per-packet latency quantiles are taken over all batch timings of all
// workers.
func runThroughput(c *core.Classifier, trace []fivetuple.Header, name string, workers, batch, perWorker int) ThroughputRow {
	type batchTiming struct {
		elapsed time.Duration
		packets int
	}
	type workerResult struct {
		batchTimes []batchTiming
		matched    int
	}
	results := make([]workerResult, workers)
	var wg sync.WaitGroup
	start := time.Now()
	for wi := 0; wi < workers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			res := workerResult{batchTimes: make([]batchTiming, 0, perWorker/batch+1)}
			hs := make([]fivetuple.Header, 0, batch)
			reader := c.Reader(wi)
			var out []core.Result
			// Offset each worker into the trace so workers exercise
			// different flows concurrently.
			pos := (wi * len(trace)) / workers
			for done := 0; done < perWorker; {
				hs = hs[:0]
				for len(hs) < batch && done+len(hs) < perWorker {
					hs = append(hs, trace[pos%len(trace)])
					pos++
				}
				t0 := time.Now()
				out = reader.LookupBatchInto(out, hs)
				res.batchTimes = append(res.batchTimes, batchTiming{elapsed: time.Since(t0), packets: len(hs)})
				for _, r := range out {
					if r.Matched {
						res.matched++
					}
				}
				done += len(hs)
			}
			results[wi] = res
		}(wi)
	}
	wg.Wait()
	elapsed := time.Since(start)

	// Convert every batch timing to a per-packet figure using that batch's
	// actual size — the final batch of a worker may be smaller than the
	// configured batch size.
	var all []time.Duration
	matched := 0
	minPPS, maxPPS := 0.0, 0.0
	for i, res := range results {
		var busy time.Duration
		packets := 0
		for _, bt := range res.batchTimes {
			if bt.packets > 0 {
				all = append(all, bt.elapsed/time.Duration(bt.packets))
			}
			busy += bt.elapsed
			packets += bt.packets
		}
		matched += res.matched
		if busy > 0 {
			pps := float64(packets) / busy.Seconds()
			if i == 0 || pps < minPPS {
				minPPS = pps
			}
			if pps > maxPPS {
				maxPPS = pps
			}
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	quantile := func(q float64) time.Duration {
		if len(all) == 0 {
			return 0
		}
		return all[int(q*float64(len(all)-1))]
	}
	total := workers * perWorker
	row := ThroughputRow{
		Engine:          name,
		Workers:         workers,
		BatchSize:       batch,
		Packets:         total,
		Elapsed:         elapsed,
		MatchedFraction: float64(matched) / float64(total),
		P50PerPacket:    quantile(0.50),
		P99PerPacket:    quantile(0.99),
	}
	if elapsed > 0 {
		row.PacketsPerSec = float64(total) / elapsed.Seconds()
	}
	row.MinWorkerPPS = minPPS
	row.MaxWorkerPPS = maxPPS
	return row
}

// RenderThroughput renders the sweep as a table.
func RenderThroughput(rows []ThroughputRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Concurrent serving throughput — snapshot-swap classifier, batched lookups\n")
	fmt.Fprintf(&b, "%-10s %6s %8s %7s %14s %10s %12s %12s %8s %6s %13s\n",
		"engine", "cache", "workers", "batch", "packets/sec", "speedup", "p50/pkt", "p99/pkt", "match%", "hit%", "min/max wkr")
	for _, r := range rows {
		cacheCol, hitCol := "off", "-"
		if r.Cached {
			cacheCol = "on"
			hitCol = fmt.Sprintf("%.1f", 100*r.CacheHitRate)
		}
		if r.Refused != nil {
			fmt.Fprintf(&b, "%-10s %6s refused: %v\n", r.Engine, cacheCol, r.Refused)
			continue
		}
		spread := "-"
		if r.MaxWorkerPPS > 0 {
			spread = fmt.Sprintf("%.2f", r.MinWorkerPPS/r.MaxWorkerPPS)
		}
		fmt.Fprintf(&b, "%-10s %6s %8d %7d %14.0f %9.2fx %12s %12s %7.1f%% %6s %13s\n",
			r.Engine, cacheCol, r.Workers, r.BatchSize, r.PacketsPerSec, r.SpeedupVs1,
			r.P50PerPacket, r.P99PerPacket, 100*r.MatchedFraction, hitCol, spread)
	}
	return b.String()
}
