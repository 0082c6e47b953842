// Command sdnpc-bench is the repository's end-to-end benchmark: four
// workloads, six gated end-to-end metrics each, and (with --trace 1) an
// outside-in ladder of per-layer metrics. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// Fixed runtime settings, printed in the run header. The load is one
// closed-loop caller on one locked OS thread, and the whole process runs on
// one processor: the collector's share of every call is then on the measured
// clock instead of beside it, and no call waits for a second virtual
// processor the host may have taken away (with two, the update rates of one
// binary spread 21 % between runs on the build host, with one 6 %; NOISE.md).
// The host still needs minProcessors: the second one keeps the kernel and the
// hypervisor's housekeeping off the first, and two rungs of the traced run
// (core.scale2_ratio, loopback) use both.
const (
	fixedGOMAXPROCS = 1
	fixedGOGC       = 100
	minProcessors   = 2
)

// metricDef names one reported metric and its unit. The two tables are the
// single source of the names the binary emits; BENCHMARK.json lists the same
// names (schema_test.go compares them).
type metricDef struct{ name, unit string }

var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"lookups_per_s", "1/s"},
	{"batch_p99_us", "us"},
	{"update_alloc_kb", "KiB"},
	{"update_allocs", "count"},
	{"heap_mb", "MiB"},
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	workloadName := flag.String("workload", "", "workload to run (default: all four, one after the other)")
	seed := flag.Int64("seed", 1, "seed of the header trace and the update sequence")
	seconds := flag.Float64("seconds", planUnits, "measured seconds per run, shared out over the phases")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics and a span file instead of end-to-end metrics")
	outDir := flag.String("out", "benchmark/out", "directory for trace files")
	flag.Parse()

	if runtime.NumCPU() < minProcessors {
		fmt.Fprintf(os.Stderr, "sdnpc-bench: nproc=%d, need at least %d processors: the measurement thread must not share one with the rest of the machine\n",
			runtime.NumCPU(), minProcessors)
		os.Exit(2)
	}
	runtime.GOMAXPROCS(fixedGOMAXPROCS)
	debug.SetGCPercent(fixedGOGC)
	runtime.LockOSThread()

	names := []string{*workloadName}
	if *workloadName == "" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	ok := true
	for _, name := range names {
		w, err := findWorkload(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sdnpc-bench:", err)
			os.Exit(2)
		}
		res, err := runWorkload(w, *seed, *seconds, *trace != 0, *outDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sdnpc-bench: %s: %v\n", name, err)
			os.Exit(1)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sdnpc-bench:", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
		ok = ok && res.Correct
	}
	if !ok {
		os.Exit(1)
	}
}

func runWorkload(w workload, seed int64, seconds float64, traced bool, outDir string) (result, error) {
	fmt.Printf("# sdnpc-bench workload=%s seed=%d seconds=%g trace=%t nproc=%d GOMAXPROCS=%d GOGC=%d %s\n",
		w.name, seed, seconds, traced, runtime.NumCPU(), fixedGOMAXPROCS, fixedGOGC, runtime.Version())
	fmt.Printf("# %s\n", w.why)

	genStart := time.Now()
	in, err := w.generate(seed)
	if err != nil {
		return result{}, err
	}
	generateS := time.Since(genStart).Seconds()
	p := newPlan(seconds)

	if traced {
		return runTraced(w, in, seed, p, w.standardLadder(), generateS, outDir)
	}

	e2e, _, err := runEndToEnd(w, in, seed, p, nil)
	if err != nil {
		return result{}, err
	}
	lk, up := &e2e.lookups, &e2e.updates
	_, groups := lk.cpu.sum()
	_, blocks := up.cpu.sum()
	fmt.Printf("# rules=%d headers=%d batch=%d generate_s=%.3f setups=%d\n",
		in.rules.Len(), len(in.trace), batchSize, generateS, e2e.setups)
	fmt.Printf("# lookups: %d calls over %d batch positions (%.1f repetitions each), %d groups of %d batches, %d GCs (%.2f ms paused); whole-run wall rate %.6g/s (reported only)\n",
		lk.calls, len(lk.wall.seen()), float64(lk.calls)/float64(max(1, len(lk.wall.seen()))), groups, w.groupBatches,
		lk.heap.total.numGC, lk.heap.total.pauseMs, lk.wholeRunRate())
	fmt.Printf("# updates: %d calls over %d cycle positions (%.1f repetitions each), %d blocks of %d ops, %d GCs (%.2f ms paused)\n",
		up.calls, len(up.wall.seen()), float64(up.calls)/float64(max(1, len(up.wall.seen()))), blocks, updateBlock,
		up.heap.total.numGC, up.heap.total.pauseMs)
	fmt.Printf("# update timing (reported only): %.6g ops/s of process CPU time, p99 %.3f us, whole-run wall rate %.6g/s\n",
		up.rate(), up.p99Us(), up.wholeRunRate())
	return report(endToEndMetrics, e2e.metrics, e2e.attempted, e2e.failed), nil
}

// report prints every metric by name with its unit, then the attempt and
// failure counts, and packs the same values into the result line. The result
// line must carry every declared metric on every workload; one whose layer
// the workload does not exercise (absent from values) goes there as 0 and is
// printed as n/a.
func report(defs []metricDef, values map[string]float64, attempted, failed int) result {
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v, measured := values[d.name]
		if measured {
			fmt.Printf("%-36s %18.6f %s\n", d.name, v, d.unit)
		} else {
			fmt.Printf("%-36s %18s %s\n", d.name, "n/a", d.unit)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	fmt.Printf("attempted %d failed %d correct %t\n", attempted, failed, res.Correct)
	return res
}
