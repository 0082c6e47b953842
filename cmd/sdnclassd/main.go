// Command sdnclassd is the classifier daemon. Its default mode serves the
// multi-tenant wire API of internal/server: any number of independent
// classifier tables (tenants) behind one HTTP/JSON endpoint, with per-tenant
// rule CRUD, classify/classify-batch, engine selection and stats (see
// docs/SERVICE.md for the API reference).
//
//	sdnclassd [-mode serve] [-http addr] [-log-level level]
//
// The daemon exits non-zero when the listen address cannot be bound and
// shuts down gracefully on SIGINT/SIGTERM.
//
// The original single-table experiment — a controller owning a generated
// filter set, a software switch classifying through the configurable
// architecture and a synthetic trace replayed through it — is kept behind
// -mode replay:
//
//	sdnclassd -mode replay -class acl -size 1k -packets 50000
//	          [-profile throughput] [-ip-engine name] [-workers N] [-batch N]
//	          [-cache-shards N] [-cache-capacity N] [-zipf s] [-churn-rate R]
//	          [-advise]
//
// With -churn-rate R > 0 a churn writer applies a generated flow-mod trace
// to the switch at R updates/sec while the replay runs, exercising the
// incremental update plane under live traffic; the update-plane statistics
// (delta publishes, rebuilds, publish latency) are printed afterwards.
//
// With -advise the replay samples served headers into the advisor's ring
// buffer and, after the summary, runs the self-tuning control plane once:
// the ranked engine/policy recommendations for the observed traffic are
// printed without being applied.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"sdnpc/internal/advisor"
	"sdnpc/internal/classbench"
	"sdnpc/internal/core"
	"sdnpc/internal/engine"
	"sdnpc/internal/fivetuple"
	"sdnpc/internal/sdn/controller"
	"sdnpc/internal/sdn/dataplane"
	"sdnpc/internal/server"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "sdnclassd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("sdnclassd", flag.ContinueOnError)
	mode := fs.String("mode", "serve", "run mode: serve (multi-tenant wire-API daemon) or replay (single-table trace replay)")
	httpAddr := fs.String("http", "127.0.0.1:8080", "wire-API listen address for -mode serve")
	logLevel := fs.String("log-level", "info", "log level for -mode serve (debug, info, warn, error)")
	className := fs.String("class", "acl", "filter-set class (acl, fw, ipc)")
	sizeName := fs.String("size", "1k", "filter-set size (1k, 5k, 10k)")
	packets := fs.Int("packets", 50000, "number of packets to replay")
	profileName := fs.String("profile", "throughput", "application profile driving the algorithm choice (throughput, capacity)")
	ipEngine := fs.String("ip-engine", "", fmt.Sprintf("select the serving engine of either tier by name, overriding the profile %v", engine.SelectableNames()))
	listen := fs.String("listen", "127.0.0.1:0", "controller listen address")
	workers := fs.Int("workers", runtime.NumCPU(), "concurrent replay workers sharing the switch")
	batch := fs.Int("batch", 64, "packets per ProcessBatch call")
	cacheShards := fs.Int("cache-shards", 0, "microflow cache shard count (0 = cache default)")
	cacheCapacity := fs.Int("cache-capacity", 0, "microflow cache total entry budget in front of the engines, split across the serving lanes; 0 disables the cache")
	zipf := fs.Float64("zipf", 0, "Zipf skew (> 1, e.g. 1.1) for the replay trace: repeat a flow population with Zipf-ranked popularity")
	churnRate := fs.Float64("churn-rate", 0, "flow-mod churn rate in updates/sec applied to the switch during the replay; 0 disables churn")
	advise := fs.Bool("advise", false, "sample the replayed traffic and print the advisor's engine/policy recommendations after the summary")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch strings.ToLower(*mode) {
	case "serve":
		return runServe(*httpAddr, *logLevel)
	case "replay":
	default:
		return fmt.Errorf("unknown -mode %q (serve, replay)", *mode)
	}
	if *workers < 1 || *batch < 1 {
		return fmt.Errorf("-workers and -batch must be positive")
	}
	if *cacheCapacity < 0 || *cacheShards < 0 {
		return fmt.Errorf("-cache-capacity and -cache-shards must not be negative")
	}
	if *churnRate < 0 {
		return fmt.Errorf("-churn-rate must not be negative")
	}

	class, size, err := parseWorkload(*className, *sizeName)
	if err != nil {
		return err
	}
	if *ipEngine != "" {
		if _, ok := engine.Selectable(*ipEngine); !ok {
			return fmt.Errorf("unknown engine %q (selectable: %v)", *ipEngine, engine.SelectableNames())
		}
	}
	profile := controller.ProfileThroughput
	if strings.ToLower(*profileName) == "capacity" {
		profile = controller.ProfileCapacity
	}

	rs := classbench.Generate(classbench.StandardConfig(class, size))
	if *ipEngine != "" {
		fmt.Printf("generated %s with %d rules; -ip-engine overrides the profile with the %q engine\n",
			rs.Name, rs.Len(), *ipEngine)
	} else {
		fmt.Printf("generated %s with %d rules; application profile %s selects the %s IP algorithm\n",
			rs.Name, rs.Len(), profile, profile.Algorithm())
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return fmt.Errorf("listening: %w", err)
	}
	swCfg := core.DefaultConfig()
	swCfg.CacheShards = *cacheShards
	swCfg.CacheCapacity = *cacheCapacity
	if *advise {
		swCfg.SampleHeaders = core.DefaultSampleHeaders
	}
	return runLoop(ln, rs, profile, *ipEngine, swCfg, *packets, *workers, *batch, *zipf, *churnRate, *advise)
}

func runLoop(ln net.Listener, rs *fivetuple.RuleSet, profile controller.ApplicationProfile, ipEngine string, swCfg core.Config, packets, workers, batch int, zipf, churnRate float64, advise bool) error {
	ctrl := controller.New(rs, profile, nil)
	if ipEngine != "" {
		// Record the name-based selection before any switch connects so the
		// handshake downloads it along with the rule set.
		if err := ctrl.SelectEngine(ipEngine); err != nil {
			return fmt.Errorf("selecting engine: %w", err)
		}
	}
	go func() { _ = ctrl.Serve(ln) }()
	defer ctrl.Stop()

	sw, err := dataplane.New(swCfg)
	if err != nil {
		return err
	}
	defer sw.Close()
	if err := sw.Connect(ln.Addr().String()); err != nil {
		return err
	}

	// Wait for the controller to download the full rule set — or as much of
	// it as fits: rules beyond the configuration's capacity are rejected by
	// the data plane (ErrRuleFilterFull), so waiting for them would hang.
	// The capacity is computed for the engine the controller will select,
	// not the classifier's boot-time engine: the set-engine message races
	// this code, so asking the switch now could report the wrong capacity.
	targetEngine := ipEngine
	if targetEngine == "" {
		if name, ok := engine.LegacyName(profile.Algorithm()); ok {
			targetEngine = name
		}
	}
	want := rs.Len()
	if capacity := sw.Classifier().Config().RuleCapacityFor(targetEngine); want > capacity {
		fmt.Printf("rule set (%d rules) exceeds the %d-rule capacity of the %q configuration; the overflow is rejected\n",
			want, capacity, targetEngine)
		want = capacity
	}
	deadline := time.Now().Add(30 * time.Second)
	for sw.Classifier().RuleCount() < want {
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out waiting for the rule download (%d/%d rules)",
				sw.Classifier().RuleCount(), want)
		}
		time.Sleep(10 * time.Millisecond)
	}
	fmt.Printf("switch programmed with %d rules (capacity %d, engine %q) via the control channel\n",
		sw.Classifier().RuleCount(), sw.Classifier().RuleCapacity(), sw.Classifier().ActiveEngineName())

	trace := classbench.GenerateTrace(rs, classbench.TraceConfig{
		Packets: packets, Seed: 17, MatchFraction: 0.95, Locality: 0.4, ZipfSkew: zipf,
	})

	// Optional churn writer: a controller-style flow-mod storm applied to
	// the switch's classifier at the requested rate while the replay runs.
	// Incremental packet engines absorb it through delta publishes; the
	// update-plane statistics are reported after the replay.
	churnDone := make(chan struct{})
	var churnApplied, churnSkipped int
	var churnWG sync.WaitGroup
	if churnRate > 0 {
		churnOps := classbench.GenerateUpdateTrace(rs, classbench.UpdateTraceConfig{
			Ops: packets, Seed: 23, Locality: 0.4,
		})
		interval := time.Duration(float64(time.Second) / churnRate)
		if interval <= 0 {
			// Rates beyond 1e9/s truncate to zero, which NewTicker rejects.
			interval = time.Nanosecond
		}
		churnWG.Add(1)
		go func() {
			defer churnWG.Done()
			ticker := time.NewTicker(interval)
			defer ticker.Stop()
			for _, op := range churnOps {
				select {
				case <-churnDone:
					return
				case <-ticker.C:
				}
				var err error
				if op.Delete {
					_, err = sw.Classifier().DeleteRule(op.Rule)
				} else {
					_, err = sw.Classifier().InsertRule(op.Rule)
				}
				if err != nil {
					churnSkipped++
					continue
				}
				churnApplied++
			}
		}()
	}

	// Shard the trace across workers; each worker replays its shard in
	// batches through the shared switch. The classifier serves every worker
	// lock-free from its published snapshot, so this is a real concurrent
	// serving path, not a time-sliced one.
	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for wi := 0; wi < workers; wi++ {
		lo := wi * len(trace) / workers
		hi := (wi + 1) * len(trace) / workers
		wg.Add(1)
		go func(wi int, shard []fivetuple.Header) {
			defer wg.Done()
			for len(shard) > 0 {
				n := batch
				if n > len(shard) {
					n = len(shard)
				}
				if _, err := sw.ProcessBatch(shard[:n]); err != nil {
					errs[wi] = err
					return
				}
				shard = shard[n:]
			}
		}(wi, trace[lo:hi])
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(churnDone)
	churnWG.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("processing packets: %w", err)
		}
	}

	counters := sw.Counters()
	// One Report call carries every observability surface the summary
	// prints: data-plane counters, cache counters, memory breakdown and the
	// update plane, all against one snapshot.
	rep := sw.Classifier().Report()
	fmt.Printf("\nreplayed %d packets in %v across %d workers (%.0f software lookups/s)\n",
		counters.Total, elapsed.Round(time.Millisecond), workers, float64(counters.Total)/elapsed.Seconds())
	fmt.Printf("forwarded %d, dropped %d, modified %d, punted %d, table misses %d\n",
		counters.Forwarded, counters.Dropped, counters.Modified, counters.Punted, counters.TableMiss)
	fmt.Printf("average field memory accesses per packet: %.2f\n", rep.Stats.AverageFieldAccesses())
	fmt.Printf("average lookup latency: %.1f cycles at %.2f MHz\n",
		rep.Stats.AverageLatencyCycles(), sw.Classifier().Config().ClockHz/1e6)
	fmt.Printf("modelled hardware throughput (40-byte packets): %.2f Gbps\n", sw.Classifier().ThroughputGbps(40))
	if rep.CacheEnabled {
		cs := rep.Cache
		fmt.Printf("microflow cache: %.1f%% hit rate (%d hits, %d misses, %d evictions, %d stale-generation drops) over %d entries (%d Kbit)\n",
			100*cs.HitRate(), cs.Hits, cs.Misses, cs.Evictions, cs.StaleGenerations,
			rep.Memory.CacheEntries, rep.Memory.CacheBits/1024)
	}
	if churnRate > 0 {
		us := rep.Updates
		fmt.Printf("churn: %d flow-mods applied at ~%.0f/s (%d skipped at capacity); %d delta publishes carrying %d deltas, %d rebuilds, publish latency p50 %v p99 %v, current delta debt %d\n",
			churnApplied, churnRate, churnSkipped, us.DeltaPublishes, us.DeltasApplied,
			us.Rebuilds, us.PublishLatency.P50(), us.PublishLatency.P99(), us.DeltasSinceRebuild)
	}
	fmt.Printf("controller observed %d packet-in messages\n", ctrl.PacketIns())

	// One advisory pass of the self-tuning control plane: shadow-bench the
	// candidate engines on the traffic the sampler captured during the
	// replay, and print the ranked recommendations without applying them.
	if advise {
		recs, err := advisor.Advise(sw.Classifier(), advisor.Options{})
		if err != nil {
			return fmt.Errorf("advising: %w", err)
		}
		if len(recs) == 0 {
			fmt.Println("advisor: current configuration already looks right for the observed traffic")
		}
		for _, r := range recs {
			fmt.Printf("advisor: %s\n", r)
		}
	}
	return nil
}

// runServe runs the multi-tenant wire-API daemon until SIGINT or SIGTERM,
// then shuts down gracefully. A bind failure surfaces as an error (and a
// non-zero exit) instead of a panic or a silent idle process.
func runServe(addr, level string) error {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return fmt.Errorf("invalid -log-level %q: %w", level, err)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl}))

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	return server.New(logger).ListenAndServe(ctx, addr)
}

func parseWorkload(className, sizeName string) (classbench.Class, classbench.Size, error) {
	var class classbench.Class
	switch strings.ToLower(className) {
	case "acl", "acl1":
		class = classbench.ACL
	case "fw", "fw1":
		class = classbench.FW
	case "ipc", "ipc1":
		class = classbench.IPC
	default:
		return 0, 0, fmt.Errorf("unknown class %q", className)
	}
	var size classbench.Size
	switch strings.ToLower(sizeName) {
	case "1k":
		size = classbench.Size1K
	case "5k":
		size = classbench.Size5K
	case "10k":
		size = classbench.Size10K
	default:
		return 0, 0, fmt.Errorf("unknown size %q", sizeName)
	}
	return class, size, nil
}
