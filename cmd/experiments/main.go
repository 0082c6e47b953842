// Command experiments regenerates the tables and figures of the paper's
// evaluation section from the packages in this repository.
//
// Usage:
//
//	experiments [-experiment all|table1|table2|table3|table4|table5|table6|table7|fig3|fig5|update|hpml|labelmethod|engines|throughput|churn|serve|sweep]
//	            [-class acl|fw|ipc] [-size 1k|5k|10k] [-packets N] [-ip-engine name]
//	            [-workers list] [-batch N] [-cache-shards N] [-cache-capacity N] [-zipf s]
//	            [-churn-ops N] [-churn-rate R] [-churn-locality L] [-churn-inserts F]
//	            [-serve-addr host:port] [-serve-tenants T] [-serve-clients M] [-serve-requests N]
//	            [-record-dir DIR]
//
// -experiment serve is the wire-API load generator: it provisions T tenants
// (in-process unless -serve-addr targets a running sdnclassd daemon),
// installs the generated filter set on each, and drives M concurrent
// clients hammering classify-batch with Zipf-skewed traffic, reporting
// lookups/s, p50/p99 wire latency and per-tenant match/cache-hit rates.
//
// -experiment sweep is the recording driver: it runs the engine, throughput
// and churn sweeps on one workload and persists every measured cell as a
// schema-versioned BENCH_<date>_<host>.json artifact under -record-dir —
// the perf trajectory across PRs, the advisor's fallback engine ranking,
// and the CI benchgate's input.
//
// The measured values are printed next to the values the paper reports, in
// the same row/column structure, so the output can be pasted into
// EXPERIMENTS.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"sdnpc/internal/bench"
	"sdnpc/internal/classbench"
	"sdnpc/internal/engine"
	"sdnpc/internal/loadgen"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	experiment := fs.String("experiment", "all", "experiment to run (all, table1..table7, fig3, fig5, update, hpml, labelmethod, engines, throughput, churn)")
	className := fs.String("class", "acl", "filter-set class for workload-driven experiments (acl, fw, ipc)")
	sizeName := fs.String("size", "5k", "filter-set size for workload-driven experiments (1k, 5k, 10k)")
	packets := fs.Int("packets", 20000, "trace length for workload-driven experiments (per worker for -experiment throughput)")
	ipEngine := fs.String("ip-engine", "", fmt.Sprintf("restrict the engines/throughput sweeps to one registered engine of either tier %v", engine.SelectableNames()))
	workersFlag := fs.String("workers", "", "comma-separated worker counts for the throughput experiment (default: 1,2,4,... up to NumCPU)")
	batchSize := fs.Int("batch", 64, "LookupBatch size for the throughput experiment")
	cacheShards := fs.Int("cache-shards", 0, "microflow cache shard count for the throughput experiment (0 = cache default)")
	cacheCapacity := fs.Int("cache-capacity", 0, "microflow cache total entry budget, split across the classifier's serving lanes; > 0 adds cached rows beside the uncached ones in the throughput experiment")
	zipf := fs.Float64("zipf", 0, "Zipf skew (> 1, e.g. 1.1) for the throughput trace: replay a flow population with Zipf-ranked popularity")
	churnOps := fs.Int("churn-ops", 2000, "update ops per cell in the churn experiment")
	churnRate := fs.Float64("churn-rate", 0, "writer pacing in updates/sec for the churn experiment; 0 = full speed")
	churnLocality := fs.Float64("churn-locality", 0.3, "rule locality [0,1) of the churn trace: higher concentrates updates on the same rules")
	churnInserts := fs.Float64("churn-inserts", 0.5, "insert fraction of the churn trace (0.5 = balanced churn)")
	serveAddr := fs.String("serve-addr", "", "target daemon for the serve experiment (host:port); empty starts an in-process server")
	serveTenants := fs.Int("serve-tenants", 2, "tenant count for the serve experiment")
	serveClients := fs.Int("serve-clients", 4, "concurrent load clients for the serve experiment")
	serveRequests := fs.Int("serve-requests", 100, "classify-batch requests per client for the serve experiment")
	recordDir := fs.String("record-dir", ".", "directory the sweep experiment writes its BENCH_<date>_<host>.json artifact into")
	if err := fs.Parse(args); err != nil {
		return err
	}
	workers, err := parseWorkers(*workersFlag)
	if err != nil {
		return err
	}

	class, err := parseClass(*className)
	if err != nil {
		return err
	}
	size, err := parseSize(*sizeName)
	if err != nil {
		return err
	}

	selected := strings.ToLower(*experiment)
	wants := func(name string) bool { return selected == "all" || selected == name }
	ranAny := false

	var workload bench.Workload
	workloadReady := false
	getWorkload := func() bench.Workload {
		if !workloadReady {
			workload = bench.NewWorkload(class, size, *packets)
			workloadReady = true
		}
		return workload
	}

	if wants("table1") {
		ranAny = true
		rows, err := bench.Table1(getWorkload())
		if err != nil {
			return fmt.Errorf("table1: %w", err)
		}
		fmt.Println(bench.RenderTable1(rows))
	}
	if wants("table2") {
		ranAny = true
		fmt.Println(bench.RenderTable2(bench.Table2()))
	}
	if wants("table3") {
		ranAny = true
		fmt.Println(bench.RenderTable3(bench.Table3()))
	}
	if wants("table4") {
		ranAny = true
		result, err := bench.Table4()
		if err != nil {
			return fmt.Errorf("table4: %w", err)
		}
		fmt.Println(bench.RenderTable4(result))
	}
	if wants("table5") {
		ranAny = true
		result, err := bench.Table5()
		if err != nil {
			return fmt.Errorf("table5: %w", err)
		}
		fmt.Println(bench.RenderTable5(result))
	}
	if wants("table6") {
		ranAny = true
		rows, err := bench.Table6(getWorkload())
		if err != nil {
			return fmt.Errorf("table6: %w", err)
		}
		fmt.Println(bench.RenderTable6(rows))
	}
	if wants("table7") {
		ranAny = true
		rows, err := bench.Table7()
		if err != nil {
			return fmt.Errorf("table7: %w", err)
		}
		fmt.Println(bench.RenderTable7(rows))
	}
	if wants("fig3") {
		ranAny = true
		result, err := bench.Fig3()
		if err != nil {
			return fmt.Errorf("fig3: %w", err)
		}
		fmt.Println(bench.RenderFig3(result))
	}
	if wants("fig5") {
		ranAny = true
		fmt.Println(bench.RenderFig5(bench.Fig5()))
	}
	if wants("update") {
		ranAny = true
		result, err := bench.UpdateExperiment(getWorkload())
		if err != nil {
			return fmt.Errorf("update: %w", err)
		}
		fmt.Println(bench.RenderUpdate(result))
	}
	if wants("hpml") {
		ranAny = true
		result, err := bench.HPMLAccuracy(getWorkload())
		if err != nil {
			return fmt.Errorf("hpml: %w", err)
		}
		fmt.Println(bench.RenderHPMLAccuracy(result))
	}
	if wants("labelmethod") {
		ranAny = true
		fmt.Println(bench.RenderLabelMethod(bench.LabelMethod(getWorkload().RuleSet)))
	}
	if wants("engines") {
		ranAny = true
		rows, err := bench.EngineSweep(getWorkload(), *ipEngine)
		if err != nil {
			return fmt.Errorf("engines: %w", err)
		}
		fmt.Println(bench.RenderEngineSweep(rows))
	}
	if wants("throughput") {
		ranAny = true
		opts := bench.ThroughputOptions{
			Workers: workers, BatchSize: *batchSize, PacketsPerWorker: *packets,
			CacheShards: *cacheShards, CacheCapacity: *cacheCapacity,
		}
		if *ipEngine != "" {
			opts.Engines = []string{*ipEngine}
		}
		w := getWorkload()
		if *zipf > 1 {
			w = bench.NewZipfWorkload(class, size, *packets, *zipf)
		}
		rows, err := bench.ThroughputSweep(w, opts)
		if err != nil {
			return fmt.Errorf("throughput: %w", err)
		}
		fmt.Println(bench.RenderThroughput(rows))
	}
	// Churn is opt-in (not part of "all"): its rebuild-mode cells pay one
	// full precomputation per publish on every packet engine, which is the
	// point of the comparison but far too slow to ride along by default.
	if selected == "churn" {
		ranAny = true
		opts := bench.UpdateSweepOptions{
			Ops:            *churnOps,
			OpsPerSecond:   *churnRate,
			InsertFraction: *churnInserts,
			Locality:       *churnLocality,
		}
		if len(workers) > 0 {
			opts.Readers = workers[len(workers)-1]
		}
		if *ipEngine != "" {
			opts.Engines = []string{*ipEngine}
		}
		rows, err := bench.UpdateSweep(getWorkload(), opts)
		if err != nil {
			return fmt.Errorf("churn: %w", err)
		}
		fmt.Println(bench.RenderUpdateSweep(rows))
	}
	// Serve is opt-in (not part of "all"): it binds a port and drives real
	// HTTP load, which should not ride along with the cycle-accurate tables.
	if selected == "serve" {
		ranAny = true
		opts := loadgen.ServeOptions{
			Addr:              *serveAddr,
			Tenants:           *serveTenants,
			Clients:           *serveClients,
			RequestsPerClient: *serveRequests,
			BatchSize:         *batchSize,
			Class:             class,
			Size:              size,
			ZipfSkew:          *zipf,
			CacheShards:       *cacheShards,
			CacheCapacity:     *cacheCapacity,
		}
		if *ipEngine != "" {
			opts.Engines = []string{*ipEngine}
		}
		result, err := loadgen.ServeLoad(opts)
		if err != nil {
			return fmt.Errorf("serve: %w", err)
		}
		fmt.Println(loadgen.RenderServe(result))
	}
	// Sweep is opt-in (not part of "all"): it re-runs three sweeps and
	// writes an artifact, which only makes sense when recording is the point.
	if selected == "sweep" {
		ranAny = true
		w := getWorkload()
		if *zipf > 1 {
			w = bench.NewZipfWorkload(class, size, *packets, *zipf)
		}
		rec := bench.NewRecord(bench.RecordConfig{
			Class:   strings.ToLower(*className),
			Size:    strings.ToLower(*sizeName),
			Rules:   w.RuleSet.Len(),
			Packets: *packets,
		})

		engineRows, err := bench.EngineSweep(w, *ipEngine)
		if err != nil {
			return fmt.Errorf("sweep/engines: %w", err)
		}
		rec.AddEngineRows(engineRows)
		fmt.Println(bench.RenderEngineSweep(engineRows))

		topts := bench.ThroughputOptions{
			Workers: workers, BatchSize: *batchSize, PacketsPerWorker: *packets,
			CacheShards: *cacheShards, CacheCapacity: *cacheCapacity,
		}
		if *ipEngine != "" {
			topts.Engines = []string{*ipEngine}
		}
		throughputRows, err := bench.ThroughputSweep(w, topts)
		if err != nil {
			return fmt.Errorf("sweep/throughput: %w", err)
		}
		rec.AddThroughputRows(throughputRows)
		fmt.Println(bench.RenderThroughput(throughputRows))

		uopts := bench.UpdateSweepOptions{
			Ops:            *churnOps,
			OpsPerSecond:   *churnRate,
			InsertFraction: *churnInserts,
			Locality:       *churnLocality,
		}
		if *ipEngine != "" {
			uopts.Engines = []string{*ipEngine}
		}
		updateRows, err := bench.UpdateSweep(w, uopts)
		if err != nil {
			return fmt.Errorf("sweep/churn: %w", err)
		}
		rec.AddUpdateRows(updateRows)
		fmt.Println(bench.RenderUpdateSweep(updateRows))

		path, err := rec.Write(*recordDir)
		if err != nil {
			return fmt.Errorf("sweep: %w", err)
		}
		fmt.Printf("recorded %d result cells → %s\n", len(rec.Results), path)
	}
	if !ranAny {
		return fmt.Errorf("unknown experiment %q", *experiment)
	}
	return nil
}

// parseWorkers parses a comma-separated worker-count list; empty means the
// driver's default doubling sweep.
func parseWorkers(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("invalid -workers entry %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

func parseClass(name string) (classbench.Class, error) {
	switch strings.ToLower(name) {
	case "acl", "acl1":
		return classbench.ACL, nil
	case "fw", "fw1":
		return classbench.FW, nil
	case "ipc", "ipc1":
		return classbench.IPC, nil
	default:
		return 0, fmt.Errorf("unknown filter-set class %q", name)
	}
}

func parseSize(name string) (classbench.Size, error) {
	switch strings.ToLower(name) {
	case "1k":
		return classbench.Size1K, nil
	case "5k":
		return classbench.Size5K, nil
	case "10k":
		return classbench.Size10K, nil
	default:
		return 0, fmt.Errorf("unknown filter-set size %q", name)
	}
}
