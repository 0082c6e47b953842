// Package sdnpc holds the repository-level benchmark harness: one benchmark
// per table and figure of the paper's evaluation (Tables I–VII, Fig. 3 and
// Fig. 5, plus the §V.A update experiment) and ablation benchmarks for the
// design choices called out in DESIGN.md.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// Benchmarks report the paper's metrics (memory accesses per packet, memory
// bits, clock cycles, Gbps) through b.ReportMetric in addition to the usual
// ns/op, so the figures that belong in EXPERIMENTS.md appear directly in the
// benchmark output.
package sdnpc_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"sdnpc/internal/algo/bst"
	"sdnpc/internal/algo/mbt"
	"sdnpc/internal/bench"
	"sdnpc/internal/classbench"
	"sdnpc/internal/core"
	"sdnpc/internal/engine"
	"sdnpc/internal/fivetuple"
	"sdnpc/internal/hw/hashunit"
	"sdnpc/internal/hw/memory"
	"sdnpc/internal/label"
)

// benchWorkload is shared across benchmarks; 5K rules keeps the RFC
// cross-product tables tractable while exercising a realistic rule count.
var benchWorkload = bench.NewWorkload(classbench.ACL, classbench.Size5K, 20000)

// smallWorkload is used by per-lookup benchmarks where build time would
// otherwise dominate.
var benchSmallWorkload = bench.NewWorkload(classbench.ACL, classbench.Size1K, 5000)

// ---------------------------------------------------------------------------
// Table I — baseline comparison
// ---------------------------------------------------------------------------

func BenchmarkTable1_Baselines(b *testing.B) {
	var rows []bench.Table1Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = bench.Table1(benchSmallWorkload)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		name := strings.ReplaceAll(r.Algorithm, " ", "_")
		b.ReportMetric(r.AvgAccesses, name+"_accesses/pkt")
		b.ReportMetric(r.MemorySpaceMb, name+"_Mbit")
	}
}

// ---------------------------------------------------------------------------
// Tables II and III — filter-set statistics
// ---------------------------------------------------------------------------

func BenchmarkTable2_UniqueFields(b *testing.B) {
	var rows []bench.Table2Row
	for i := 0; i < b.N; i++ {
		rows = bench.Table2()
	}
	last := rows[len(rows)-1]
	b.ReportMetric(float64(last.UniqueCount[fivetuple.FieldSrcIP]), "acl10k_unique_srcIP")
	b.ReportMetric(float64(last.UniqueCount[fivetuple.FieldDstPort]), "acl10k_unique_dstPort")
}

func BenchmarkTable3_FilterSetGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = bench.Table3()
	}
}

// ---------------------------------------------------------------------------
// Table IV — port labelling
// ---------------------------------------------------------------------------

func BenchmarkTable4_PortLabelling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Table4(); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Table V — synthesis estimate
// ---------------------------------------------------------------------------

func BenchmarkTable5_Synthesis(b *testing.B) {
	var result bench.Table5Result
	var err error
	for i := 0; i < b.N; i++ {
		result, err = bench.Table5()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(result.Report.BlockMemoryBits), "block_memory_bits")
	b.ReportMetric(result.Report.FmaxMHz, "fmax_MHz")
	b.ReportMetric(float64(result.Report.LogicALMs), "ALMs")
}

// ---------------------------------------------------------------------------
// Table VI — MBT versus BST
// ---------------------------------------------------------------------------

func benchmarkTable6Lookup(b *testing.B, alg memory.AlgSelect) {
	cfg := core.DefaultConfig()
	cfg.IPAlgorithm = alg
	c := core.MustNew(cfg)
	if _, err := c.InstallRuleSet(benchSmallWorkload.RuleSet); err != nil {
		b.Fatal(err)
	}
	trace := benchSmallWorkload.Trace
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(trace[i%len(trace)])
	}
	b.StopTimer()
	rep := c.Report()
	stats, report := rep.Stats, rep.Memory
	b.ReportMetric(stats.AverageFieldAccesses(), "field_accesses/pkt")
	b.ReportMetric(stats.AverageLatencyCycles(), "latency_cycles")
	b.ReportMetric(float64(c.Pipeline().BottleneckInterval()), "cycles/pkt_provisioned")
	b.ReportMetric(bench.Kbit(report.IPAlgorithmUsedBits()), "ip_memory_Kbit")
	b.ReportMetric(float64(c.RuleCapacity()), "rule_capacity")
}

func BenchmarkTable6_MBT(b *testing.B) { benchmarkTable6Lookup(b, memory.SelectMBT) }
func BenchmarkTable6_BST(b *testing.B) { benchmarkTable6Lookup(b, memory.SelectBST) }

// ---------------------------------------------------------------------------
// Engine sweep — every registered IP-segment engine through the registry
// ---------------------------------------------------------------------------

// BenchmarkIPEngines sweeps every engine the registry knows, so a newly
// registered algorithm automatically gains a benchmark row next to the
// paper's MBT/BST pair.
func BenchmarkIPEngines(b *testing.B) {
	for _, name := range engine.IPEngineNames() {
		b.Run(name, func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.IPEngine = name
			c := core.MustNew(cfg)
			if _, err := c.InstallRuleSet(benchSmallWorkload.RuleSet); err != nil {
				b.Fatal(err)
			}
			trace := benchSmallWorkload.Trace
			// Prime lazily built structures so the first timed lookup is
			// representative.
			c.Lookup(trace[0])
			c.ResetStats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Lookup(trace[i%len(trace)])
			}
			b.StopTimer()
			rep := c.Report()
			stats, report := rep.Stats, rep.Memory
			b.ReportMetric(stats.AverageFieldAccesses(), "field_accesses/pkt")
			b.ReportMetric(stats.AverageLatencyCycles(), "latency_cycles")
			b.ReportMetric(float64(c.Pipeline().BottleneckInterval()), "cycles/pkt_provisioned")
			b.ReportMetric(bench.Kbit(report.IPAlgorithmUsedBits()), "ip_memory_Kbit")
			b.ReportMetric(float64(c.RuleCapacity()), "rule_capacity")
		})
	}
}

// ---------------------------------------------------------------------------
// Concurrent serving throughput — the snapshot-swap path under load
// ---------------------------------------------------------------------------

// runThroughputWorkers splits b.N packets over the workers, replays the
// trace in batches through the given lookup callback and reports pkts/s plus
// the slowest and fastest individual worker's rate — the spread that makes
// worker (and lane) imbalance visible in the benchstat output.
func runThroughputWorkers(b *testing.B, workers, batch int, trace []fivetuple.Header, lookup func(worker int, hs []fivetuple.Header)) {
	b.Helper()
	busy := make([]time.Duration, workers)
	counts := make([]int, workers)
	b.ResetTimer()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		count := b.N / workers
		if w == 0 {
			count += b.N % workers
		}
		wg.Add(1)
		go func(w, count, pos int) {
			defer wg.Done()
			counts[w] = count
			hs := make([]fivetuple.Header, batch)
			start := time.Now()
			for count > 0 {
				n := batch
				if n > count {
					n = count
				}
				for i := 0; i < n; i++ {
					hs[i] = trace[pos%len(trace)]
					pos++
				}
				lookup(w, hs[:n])
				count -= n
			}
			busy[w] = time.Since(start)
		}(w, count, w*len(trace)/workers)
	}
	wg.Wait()
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(b.N)/sec, "pkts/s")
	}
	minPPS, maxPPS := 0.0, 0.0
	for w := 0; w < workers; w++ {
		if busy[w] <= 0 || counts[w] == 0 {
			continue
		}
		pps := float64(counts[w]) / busy[w].Seconds()
		if minPPS == 0 || pps < minPPS {
			minPPS = pps
		}
		if pps > maxPPS {
			maxPPS = pps
		}
	}
	if maxPPS > 0 {
		b.ReportMetric(minPPS, "min_wkr_pkts/s")
		b.ReportMetric(maxPPS, "max_wkr_pkts/s")
	}
}

// BenchmarkThroughput measures the real serving rate of the concurrent
// lookup path: batched lookups driven from N goroutines against one shared
// classifier, for every selectable engine of both tiers (field engines and
// the whole-packet rfc-full/dcfl/hypercuts). ns/op is per packet and a
// pkts/s metric is reported; the CI bench job tracks these for regressions.
// On multi-core machines the worker_4 rows should beat worker_1 (>1x
// scaling); on a single-core runner they only measure scheduling overhead.
func BenchmarkThroughput(b *testing.B) {
	const batch = 64
	for _, name := range engine.SelectableNames() {
		c := core.MustNew(bench.EngineConfig(name))
		if _, err := c.InstallRuleSet(benchSmallWorkload.RuleSet); err != nil {
			b.Fatal(err)
		}
		trace := benchSmallWorkload.Trace
		for _, workers := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%s/workers_%d", name, workers), func(b *testing.B) {
				runThroughputWorkers(b, workers, batch, trace, func(_ int, hs []fivetuple.Header) {
					c.LookupBatch(hs)
				})
			})
		}
	}
}

// BenchmarkThroughputZipf measures the microflow cache on a Zipf(1.1)
// flow-replay trace: for every selectable engine of both tiers, an uncached
// and a cached sub-benchmark drive the same 4-worker batched serving path.
// The cached rows additionally report the hit rate; the acceptance target is
// >= 2x pkts/s with the cache on for at least one engine per tier.
func BenchmarkThroughputZipf(b *testing.B) {
	const batch = 64
	const workers = 4
	w := bench.NewZipfWorkload(classbench.ACL, classbench.Size1K, 20000, 1.1)
	for _, name := range engine.SelectableNames() {
		for _, cached := range []bool{false, true} {
			cfg := bench.EngineConfig(name)
			label := "uncached"
			if cached {
				cfg = bench.CachedEngineConfig(name, 0, 65536)
				label = "cached"
			}
			c := core.MustNew(cfg)
			if _, err := c.InstallRuleSet(w.RuleSet); err != nil {
				b.Fatal(err)
			}
			trace := w.Trace
			b.Run(fmt.Sprintf("%s/%s", name, label), func(b *testing.B) {
				c.ResetStats()
				runThroughputWorkers(b, workers, batch, trace, func(_ int, hs []fivetuple.Header) {
					c.LookupBatch(hs)
				})
				if rep := c.Report(); rep.CacheEnabled {
					b.ReportMetric(100*rep.Cache.HitRate(), "hit%")
				}
			})
		}
	}
}

// ---------------------------------------------------------------------------
// Table VII — throughput comparison
// ---------------------------------------------------------------------------

func BenchmarkTable7_Throughput(b *testing.B) {
	var rows []bench.Table7Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = bench.Table7()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Source == "measured" {
			b.ReportMetric(r.ThroughputGbps, strings.ReplaceAll(r.Algorithm, " ", "_")+"_Gbps")
		}
	}
}

// ---------------------------------------------------------------------------
// Fig. 3 — pipeline, Fig. 5 — memory sharing, §V.A — updates
// ---------------------------------------------------------------------------

func BenchmarkFig3_PipelineLatency(b *testing.B) {
	var result bench.Fig3Result
	var err error
	for i := 0; i < b.N; i++ {
		result, err = bench.Fig3()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(result.MBTLatencyCycles), "mbt_latency_cycles")
	b.ReportMetric(float64(result.BSTLatencyCycles), "bst_latency_cycles")
}

func BenchmarkFig5_MemorySharing(b *testing.B) {
	var result bench.Fig5Result
	for i := 0; i < b.N; i++ {
		result = bench.Fig5()
	}
	b.ReportMetric(float64(result.RuleCapacityMBT), "rules_mbt")
	b.ReportMetric(float64(result.RuleCapacityBST), "rules_bst")
}

func BenchmarkUpdate_RuleInsertion(b *testing.B) {
	// §V.A: rule insertion costs a constant 3 clock cycles of upload on the
	// data plane; this benchmark measures the controller-side software cost
	// per inserted rule as well.
	rules := benchSmallWorkload.RuleSet.Rules()
	b.ResetTimer()
	var c *core.Classifier
	for i := 0; i < b.N; i++ {
		if i%len(rules) == 0 {
			b.StopTimer()
			c = core.MustNew(core.DefaultConfig())
			b.StartTimer()
		}
		if _, err := c.InsertRule(rules[i%len(rules)]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(core.UpdateCyclesPerRule()), "hw_cycles/rule")
}

func BenchmarkUpdate_RuleDeletion(b *testing.B) {
	rules := benchSmallWorkload.RuleSet.Rules()
	c := core.MustNew(core.DefaultConfig())
	if _, err := c.InstallRuleSet(benchSmallWorkload.RuleSet); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := rules[i%len(rules)]
		if _, err := c.DeleteRule(r); err != nil {
			b.Fatal(err)
		}
		if _, err := c.InsertRule(r); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Per-field engine microbenchmarks (§V.B)
// ---------------------------------------------------------------------------

func BenchmarkFieldLookup_MBTSegment(b *testing.B) {
	e := mbt.MustNew(mbt.SegmentConfig())
	for i := 0; i < 2000; i++ {
		if _, err := e.Insert(uint32(i*31)&0xFFFF, 16, label.Label(i%4096), i); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Lookup(uint32(i) & 0xFFFF)
	}
	b.ReportMetric(float64(e.WorstCaseAccesses()), "worst_accesses")
}

func BenchmarkFieldLookup_BSTSegment(b *testing.B) {
	e := bst.MustNew(bst.SegmentConfig())
	for i := 0; i < 2000; i++ {
		if _, err := e.Insert(uint32(i*31)&0xFFFF, 16, label.Label(i%4096), i); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Lookup(uint32(i) & 0xFFFF)
	}
	b.ReportMetric(float64(e.WorstCaseAccessesFor()), "worst_accesses")
}

// ---------------------------------------------------------------------------
// End-to-end classifier lookup benchmarks (software model speed)
// ---------------------------------------------------------------------------

func benchmarkClassifierLookup(b *testing.B, mode core.CombineMode, w bench.Workload) {
	cfg := core.DefaultConfig()
	cfg.CombineMode = mode
	c := core.MustNew(cfg)
	if _, err := c.InstallRuleSet(w.RuleSet); err != nil {
		b.Fatal(err)
	}
	trace := w.Trace
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(trace[i%len(trace)])
	}
	b.StopTimer()
	stats := c.Report().Stats
	b.ReportMetric(stats.AverageCombinations(), "combinations/pkt")
	b.ReportMetric(float64(stats.RuleFilterProbes)/float64(stats.Lookups), "probes/op")
}

// BenchmarkLookup_ExactCombination runs the exact field-tier combination on
// one 1k set of each ClassBench class: the fw and ipc sets present two to
// four times the label combinations per packet the acl set does, so a walk
// that stops pruning shows there first.
func BenchmarkLookup_ExactCombination(b *testing.B) {
	for _, class := range []classbench.Class{classbench.ACL, classbench.FW, classbench.IPC} {
		w := bench.NewWorkload(class, classbench.Size1K, 20000)
		b.Run(class.String(), func(b *testing.B) {
			benchmarkClassifierLookup(b, core.CombineCrossProduct, w)
		})
	}
}

func BenchmarkLookup_HPMLSingleProbe(b *testing.B) {
	benchmarkClassifierLookup(b, core.CombineHPML, benchWorkload)
}

// ---------------------------------------------------------------------------
// Ablations (DESIGN.md §5)
// ---------------------------------------------------------------------------

// BenchmarkAblation_MBTStrides compares the paper's 5/5/6 stride split with
// alternative splits of the 16-bit segment.
func BenchmarkAblation_MBTStrides(b *testing.B) {
	strideSets := map[string][]int{
		"5-5-6":   {5, 5, 6},
		"4-6-6":   {4, 6, 6},
		"8-8":     {8, 8},
		"4-4-4-4": {4, 4, 4, 4},
	}
	values := benchSmallWorkload.RuleSet.Rules()
	for name, strides := range strideSets {
		b.Run(name, func(b *testing.B) {
			cfg := mbt.Config{KeyBits: 16, Strides: strides, NodeEntryBits: 32, LabelEntryBits: 13}
			e := mbt.MustNew(cfg)
			for i, r := range values {
				hi, bits := r.SrcPrefix.HighSegment()
				if bits == 0 {
					continue
				}
				if _, err := e.Insert(uint32(hi), bits, label.Label(i%8192), i); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Lookup(uint32(i) & 0xFFFF)
			}
			b.StopTimer()
			b.ReportMetric(float64(e.MemoryBits())/1024, "node_Kbit")
			b.ReportMetric(float64(e.WorstCaseAccesses()), "levels")
		})
	}
}

// BenchmarkAblation_LabelMethod quantifies the §III.C storage-saving claim.
func BenchmarkAblation_LabelMethod(b *testing.B) {
	var a bench.LabelMethodAblation
	for i := 0; i < b.N; i++ {
		a = bench.LabelMethod(benchWorkload.RuleSet)
	}
	b.ReportMetric(100*a.FieldSavingFraction, "field_saving_pct")
	b.ReportMetric(100*a.NetSavingFraction, "net_saving_pct")
}

// BenchmarkAblation_MemorySharing compares rule capacity with and without the
// Fig. 5 shared-block scheme.
func BenchmarkAblation_MemorySharing(b *testing.B) {
	var withSharing, withoutSharing int
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultConfig()
		withSharing = cfg.RuleCapacityFor("bst")
		withoutSharing = cfg.RuleCapacityFor("mbt")
	}
	b.ReportMetric(float64(withSharing), "rules_with_sharing")
	b.ReportMetric(float64(withoutSharing), "rules_without_sharing")
}

// BenchmarkAblation_HashLoad measures Rule Filter probe counts as the load
// factor grows, validating the single-cycle rule-address assumption of §V.A.
func BenchmarkAblation_HashLoad(b *testing.B) {
	for _, load := range []float64{0.25, 0.5, 0.75, 0.9} {
		b.Run(fmt.Sprintf("load_%.2f", load), func(b *testing.B) {
			cfg := core.DefaultConfig()
			c := core.MustNew(cfg)
			target := int(load * float64(cfg.RuleFilterSlots()))
			rules := classbench.Generate(classbench.Config{Class: classbench.ACL, Rules: target, Seed: 7})
			var totalProbes, inserted int
			for _, r := range rules.Rules() {
				rep, err := c.InsertRule(r)
				if err != nil {
					b.Fatal(err)
				}
				totalProbes += rep.RuleFilterProbes
				inserted++
			}
			b.ResetTimer()
			trace := classbench.GenerateTrace(rules, classbench.TraceConfig{Packets: 1000, Seed: 9, MatchFraction: 1})
			for i := 0; i < b.N; i++ {
				c.Lookup(trace[i%len(trace)])
			}
			b.StopTimer()
			b.ReportMetric(float64(totalProbes)/float64(inserted), "insert_probes/rule")
		})
	}
}

// BenchmarkAblation_BSTRebuild measures the software rebuild cost that the
// BST pays on every update (the structural drawback §IV.C discusses).
func BenchmarkAblation_BSTRebuild(b *testing.B) {
	e := bst.MustNew(bst.SegmentConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := uint32(i*17) & 0xFFFF
		if _, err := e.Insert(v, 16, label.Label(i%4096), i); err != nil {
			b.Fatal(err)
		}
		if i%512 == 511 {
			// Keep the structure bounded so the benchmark measures steady
			// rebuild cost rather than unbounded growth.
			b.StopTimer()
			e = bst.MustNew(bst.SegmentConfig())
			b.StartTimer()
		}
	}
}

// ---------------------------------------------------------------------------
// Update plane — incremental delta-apply versus full rebuild
// ---------------------------------------------------------------------------

// BenchmarkUpdateLatency measures the write side of every packet engine on
// a 1k-rule set, incremental versus rebuild, at two levels. The
// "structure-*" rows isolate the update primitive itself: one delta op
// (insert + delete) versus one full Install of the precomputed structure —
// the marginal per-op cost a batched flow-mod download pays, and where the
// incremental plane must win by >= 5x. The publish-level "delta"/"rebuild"
// rows run the same single-rule updates through the full RCU
// clone-mutate-sync-swap path, whose snapshot clone is a shared constant
// cost on both modes; they track the end-to-end publish latency the CI
// benchstat job gates. "delta" rows ride the incremental plane (unbounded
// budget, degradation trip disabled); "rebuild" rows pin
// RebuildAfterDeltas=1, the pre-incremental one-precomputation-per-publish
// behaviour.
func BenchmarkUpdateLatency(b *testing.B) {
	structureRules := benchSmallWorkload.RuleSet.Rules()
	for _, name := range engine.PacketEngineNames() {
		for _, mode := range []string{"structure-delta", "structure-rebuild"} {
			b.Run(fmt.Sprintf("%s/%s", name, mode), func(b *testing.B) {
				eng, err := engine.NewPacket(name, engine.Spec{})
				if err != nil {
					b.Fatal(err)
				}
				if err := eng.Install(structureRules); err != nil {
					b.Fatal(err)
				}
				churn := fivetuple.Rule{
					SrcPrefix: fivetuple.MustParsePrefix("203.0.113.0/24"),
					DstPrefix: fivetuple.MustParsePrefix("198.51.100.0/24"),
					SrcPort:   fivetuple.WildcardPortRange(),
					DstPort:   fivetuple.ExactPort(8443),
					Protocol:  fivetuple.ExactProtocol(fivetuple.ProtoTCP),
					Priority:  100000, Action: fivetuple.ActionForward,
				}
				if mode == "structure-delta" {
					inc, ok := eng.(engine.IncrementalPacketEngine)
					if !ok {
						b.Skipf("%s has no incremental update path", name)
					}
					end := len(structureRules)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if err := inc.InsertRule(churn, end); err != nil {
							b.Fatal(err)
						}
						if err := inc.DeleteRule(churn, end); err != nil {
							b.Fatal(err)
						}
					}
				} else {
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if err := eng.Install(structureRules); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
		}
		for _, mode := range []string{"delta", "rebuild"} {
			b.Run(fmt.Sprintf("%s/%s", name, mode), func(b *testing.B) {
				cfg := bench.EngineConfig(name)
				if mode == "rebuild" {
					cfg.RebuildAfterDeltas = 1
				} else {
					def, _ := engine.Get(name)
					if !def.Incremental {
						b.Skipf("%s has no incremental update path", name)
					}
					cfg.RebuildAfterDeltas = -1
					cfg.DegradationThreshold = 1.01
				}
				c := core.MustNew(cfg)
				if _, err := c.InstallRuleSet(benchSmallWorkload.RuleSet); err != nil {
					b.Fatal(err)
				}
				churn := fivetuple.Rule{
					SrcPrefix: fivetuple.MustParsePrefix("203.0.113.0/24"),
					DstPrefix: fivetuple.MustParsePrefix("198.51.100.0/24"),
					SrcPort:   fivetuple.WildcardPortRange(),
					DstPort:   fivetuple.ExactPort(8443),
					Protocol:  fivetuple.ExactProtocol(fivetuple.ProtoTCP),
					Priority:  100000, Action: fivetuple.ActionForward,
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := c.InsertRule(churn); err != nil {
						b.Fatal(err)
					}
					if _, err := c.DeleteRule(churn); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				stats := c.Report().Updates
				b.ReportMetric(float64(stats.DeltasApplied), "deltas")
				b.ReportMetric(float64(stats.Rebuilds), "rebuilds")
				b.ReportMetric(stats.PublishLatency.P99().Seconds()*1e9, "p99_ns")
			})
		}
	}
}

// BenchmarkHashUnit measures the hardware hash model itself.
func BenchmarkHashUnit(b *testing.B) {
	u := hashunit.MustNew(13)
	key := [9]byte{0x0A, 1, 2, 3, 4, 5, 6, 7, 8}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key[8] = byte(i)
		u.Hash(key)
	}
}
