// Micro-benchmarks of single structures and update primitives that neither
// bash benchmark/run.sh (the measured record, per-layer ladder included) nor
// cmd/experiments' golden paper reproduction covers. No CI job runs or gates
// them; they are for looking at one structure in isolation:
//
//	go test -run '^$' -bench=. -benchmem .
package sdnpc_test

import (
	"fmt"
	"testing"

	"sdnpc/internal/algo/bst"
	"sdnpc/internal/algo/mbt"
	"sdnpc/internal/bench"
	"sdnpc/internal/classbench"
	"sdnpc/internal/core"
	"sdnpc/internal/engine"
	"sdnpc/internal/fieldtier"
	"sdnpc/internal/fivetuple"
	"sdnpc/internal/hw/hashunit"
	"sdnpc/internal/label"
)

// benchSmallWorkload is used by per-lookup benchmarks where build time would
// otherwise dominate.
var benchSmallWorkload = bench.NewWorkload(classbench.ACL, classbench.Size1K, 5000)

// ---------------------------------------------------------------------------
// Engine sweep — every registered IP-segment engine through the registry
// ---------------------------------------------------------------------------

// BenchmarkIPEngines times one lookup per IP-segment engine the registry
// knows, so a newly registered algorithm automatically gains a row next to
// the paper's MBT/BST pair. The modelled per-engine figures are the engine
// sweep's (go run ./cmd/experiments -experiment engines).
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
		})
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

// BenchmarkLookup_ExactCombination runs the exact field-tier combination on
// one 1k set of each ClassBench class: the fw and ipc sets present two to
// four times the label combinations per packet the acl set does, so a walk
// that stops pruning shows there first.
func BenchmarkLookup_ExactCombination(b *testing.B) {
	for _, class := range []classbench.Class{classbench.ACL, classbench.FW, classbench.IPC} {
		w := bench.NewWorkload(class, classbench.Size1K, 20000)
		b.Run(class.String(), func(b *testing.B) {
			c := core.MustNew(core.DefaultConfig())
			if _, err := c.InstallRuleSet(w.RuleSet); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Lookup(w.Trace[i%len(w.Trace)])
			}
			b.StopTimer()
			stats := c.Report().Stats
			b.ReportMetric(stats.AverageCombinations(), "combinations/pkt")
			b.ReportMetric(float64(stats.RuleFilterProbes)/float64(stats.Lookups), "probes/op")
		})
	}
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

// BenchmarkAblation_HashLoad measures Rule Filter probe counts as the load
// factor grows, validating the single-cycle rule-address assumption of §V.A.
func BenchmarkAblation_HashLoad(b *testing.B) {
	for _, load := range []float64{0.25, 0.5, 0.75, 0.9} {
		b.Run(fmt.Sprintf("load_%.2f", load), func(b *testing.B) {
			c := core.MustNew(core.DefaultConfig())
			target := int(load * float64(fieldtier.RuleFilterSlots))
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
// incremental plane must win by >= 5x. The publish-level "publish" rows run
// the same single-rule updates through the full RCU clone-mutate-sync-swap
// path under the fixed policy: an incremental engine delta-applies and
// rebuilds every DefaultRebuildAfterDeltas deltas, any other engine rebuilds
// every publish (benchmark/'s core.publish_p99_us is the measured record of
// that path).
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
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if _, err := inc.InsertRule(churn); err != nil {
							b.Fatal(err)
						}
						if _, err := inc.DeleteRule(churn); err != nil {
							if inc.UpdateCost().DeadIDs < len(structureRules) {
								b.Fatal(err)
							}
							// The retired ids reached their bound: rebuild,
							// as the classifier does, off the clock.
							b.StopTimer()
							if err := eng.Install(structureRules); err != nil {
								b.Fatal(err)
							}
							b.StartTimer()
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
		b.Run(name+"/publish", func(b *testing.B) {
			c := core.MustNew(bench.EngineConfig(name))
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
