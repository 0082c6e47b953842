// Command experiments regenerates the tables and figures of the paper's
// evaluation section from the packages in this repository. Throughput
// figures in the tables are the modelled hardware pipeline; measured
// software performance comes from benchmark/ (bash benchmark/run.sh).
//
// Usage:
//
//	experiments [-experiment NAME]
//	            [-class acl|fw|ipc] [-size 1k|5k|10k] [-packets N] [-ip-engine name]
//	            [-workers list] [-batch N] [-cache-shards N] [-cache-capacity N] [-zipf s]
//	            [-serve-addr host:port] [-serve-tenants T] [-serve-clients M] [-serve-requests N]
//
// NAME is "all" or one entry of the experiments list below (-h prints it).
//
// -experiment serve is the wire-API load generator: it provisions T tenants
// (in-process unless -serve-addr targets a running sdnclassd daemon),
// installs the generated filter set on each, and drives M concurrent
// clients hammering classify-batch with Zipf-skewed traffic, reporting
// lookups/s, p50/p99 wire latency and per-tenant match/cache-hit rates.
//
// The measured values are printed next to the values the paper reports, in
// the same row/column structure, so the output can be pasted into
// EXPERIMENTS.md.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"sdnpc/internal/bench"
	"sdnpc/internal/classbench"
	"sdnpc/internal/engine"
	"sdnpc/internal/loadgen"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// params is what the flags resolve to; every experiment reads what it needs.
type params struct {
	class         classbench.Class
	size          classbench.Size
	packets       int
	ipEngine      string
	engines       []string // the -ip-engine restriction as a sweep's engine list
	workers       []int
	batchSize     int
	cacheShards   int
	cacheCapacity int
	zipf          float64
	serve         loadgen.ServeOptions

	cached *bench.Workload
}

// workload generates the shared filter set and trace once, on first use, so
// the experiments that need none (table2, fig5, ...) do not pay for it.
func (p *params) workload() bench.Workload {
	if p.cached == nil {
		w := bench.NewWorkload(p.class, p.size, p.packets)
		p.cached = &w
	}
	return *p.cached
}

// experiment is one -experiment value. The experiments list is the single
// source of the valid names: the flag help, the unknown-name error and the
// order "all" runs in are all derived from it.
type experiment struct {
	name string
	// optIn experiments are not part of "all".
	optIn bool
	run   func(*params) (string, error)
}

// rendered adapts a Render function to an experiment's (rows, error) result.
func rendered[T any](render func(T) string) func(T, error) (string, error) {
	return func(v T, err error) (string, error) {
		if err != nil {
			return "", err
		}
		return render(v), nil
	}
}

var experiments = []experiment{
	{name: "table1", run: func(p *params) (string, error) {
		return rendered(bench.RenderTable1)(bench.Table1(p.workload()))
	}},
	{name: "table2", run: func(*params) (string, error) { return bench.RenderTable2(bench.Table2()), nil }},
	{name: "table3", run: func(*params) (string, error) { return bench.RenderTable3(bench.Table3()), nil }},
	{name: "table4", run: func(*params) (string, error) { return rendered(bench.RenderTable4)(bench.Table4()) }},
	{name: "table5", run: func(*params) (string, error) { return rendered(bench.RenderTable5)(bench.Table5()) }},
	{name: "table6", run: func(p *params) (string, error) {
		return rendered(bench.RenderTable6)(bench.Table6(p.workload()))
	}},
	{name: "table7", run: func(*params) (string, error) { return rendered(bench.RenderTable7)(bench.Table7()) }},
	{name: "fig3", run: func(*params) (string, error) { return rendered(bench.RenderFig3)(bench.Fig3()) }},
	{name: "fig5", run: func(*params) (string, error) { return bench.RenderFig5(bench.Fig5()), nil }},
	{name: "update", run: func(p *params) (string, error) {
		return rendered(bench.RenderUpdate)(bench.UpdateExperiment(p.workload()))
	}},
	{name: "hpml", run: func(p *params) (string, error) {
		return rendered(bench.RenderHPMLAccuracy)(bench.HPMLAccuracy(p.workload()))
	}},
	{name: "labelmethod", run: func(p *params) (string, error) {
		return bench.RenderLabelMethod(bench.LabelMethod(p.workload().RuleSet)), nil
	}},
	{name: "engines", run: func(p *params) (string, error) {
		return rendered(bench.RenderEngineSweep)(bench.EngineSweep(p.workload(), p.ipEngine))
	}},
	{name: "throughput", run: func(p *params) (string, error) {
		w := p.workload()
		if p.zipf > 1 {
			w = bench.NewZipfWorkload(p.class, p.size, p.packets, p.zipf)
		}
		return rendered(bench.RenderThroughput)(bench.ThroughputSweep(w, bench.ThroughputOptions{
			Engines: p.engines, Workers: p.workers, BatchSize: p.batchSize, PacketsPerWorker: p.packets,
			CacheShards: p.cacheShards, CacheCapacity: p.cacheCapacity,
		}))
	}},
	// Serve is opt-in: it binds a port and drives real HTTP load, which
	// should not ride along with the cycle-accurate tables.
	{name: "serve", optIn: true, run: func(p *params) (string, error) {
		return rendered(loadgen.RenderServe)(loadgen.ServeLoad(p.serve))
	}},
}

// experimentNames lists "all" and every experiment, in run order.
func experimentNames() []string {
	names := []string{"all"}
	for _, e := range experiments {
		names = append(names, e.name)
	}
	return names
}

func run(args []string, out io.Writer) error {
	valid := strings.Join(experimentNames(), ", ")
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	selected := fs.String("experiment", "all", "experiment to run: "+valid+" (serve is not part of all)")
	className := fs.String("class", "acl", "filter-set class for workload-driven experiments (acl, fw, ipc)")
	sizeName := fs.String("size", "5k", "filter-set size for workload-driven experiments (1k, 5k, 10k)")
	packets := fs.Int("packets", 20000, "trace length for workload-driven experiments (per worker for -experiment throughput)")
	ipEngine := fs.String("ip-engine", "", fmt.Sprintf("restrict the engines/throughput/serve experiments to one registered engine of either tier %v", engine.SelectableNames()))
	workersFlag := fs.String("workers", "", "comma-separated worker counts for the throughput experiment (default: 1,2,4,... up to NumCPU)")
	batchSize := fs.Int("batch", 64, "LookupBatch size for the throughput experiment")
	cacheShards := fs.Int("cache-shards", 0, "microflow cache shard count for the throughput experiment (0 = cache default)")
	cacheCapacity := fs.Int("cache-capacity", 0, "microflow cache total entry budget, split across the classifier's serving lanes; > 0 adds cached rows beside the uncached ones in the throughput experiment")
	zipf := fs.Float64("zipf", 0, "Zipf skew (> 1, e.g. 1.1) for the throughput trace: replay a flow population with Zipf-ranked popularity")
	serveAddr := fs.String("serve-addr", "", "target daemon for the serve experiment (host:port); empty starts an in-process server")
	serveTenants := fs.Int("serve-tenants", 2, "tenant count for the serve experiment")
	serveClients := fs.Int("serve-clients", 4, "concurrent load clients for the serve experiment")
	serveRequests := fs.Int("serve-requests", 100, "classify-batch requests per client for the serve experiment")
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
	var engines []string
	if *ipEngine != "" {
		engines = []string{*ipEngine}
	}
	p := &params{
		class: class, size: size, packets: *packets, ipEngine: *ipEngine, engines: engines,
		workers: workers, batchSize: *batchSize,
		cacheShards: *cacheShards, cacheCapacity: *cacheCapacity, zipf: *zipf,
		serve: loadgen.ServeOptions{
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
			Engines:           engines,
		},
	}

	name := strings.ToLower(*selected)
	ranAny := false
	for _, e := range experiments {
		if name != e.name && (name != "all" || e.optIn) {
			continue
		}
		ranAny = true
		text, err := e.run(p)
		if err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		fmt.Fprintln(out, text)
	}
	if !ranAny {
		return fmt.Errorf("unknown experiment %q (valid: %s)", *selected, valid)
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
