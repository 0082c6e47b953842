// Firewall example: load a full firewall-style filter set (fw1, Table III)
// through the public sdnpc package, replay a synthetic trace against it and
// compare the architecture's verdicts with a linear reference classifier,
// then print the data-plane statistics the paper's evaluation is built on.
//
// Run with:
//
//	go run ./examples/firewall
package main

import (
	"fmt"
	"log"

	"sdnpc"
)

func main() {
	// fw1-1K: the firewall filter set of Table III.
	rules := sdnpc.MustGenerateRuleSet("fw", "1k")
	fmt.Printf("loaded %s with %d rules\n", rules.Name, rules.Len())

	classifier, err := sdnpc.New()
	if err != nil {
		log.Fatalf("creating classifier: %v", err)
	}
	installReport, err := classifier.InsertAll(rules)
	if err != nil {
		log.Fatalf("installing rules: %v", err)
	}
	fmt.Printf("installed with %d engine writes, %d unique labels created\n",
		installReport.EngineWrites, installReport.NewLabels)

	trace := sdnpc.GenerateTrace(rules, sdnpc.TraceOptions{
		Packets: 20000, Seed: 5, MatchFraction: 0.85, Locality: 0.5,
	})
	mismatches := 0
	dropped := 0
	for _, h := range trace {
		wantIdx, wantOK := rules.Classify(h)
		got := classifier.Lookup(h)
		if got.Matched != wantOK || (wantOK && got.Priority != wantIdx) {
			mismatches++
		}
		if got.Matched && got.Action == sdnpc.Drop {
			dropped++
		}
	}
	rep := classifier.Report()
	stats := rep.Stats
	fmt.Printf("replayed %d packets: %d verdict mismatches against the reference classifier\n",
		len(trace), mismatches)
	fmt.Printf("dropped by policy: %d packets (%.1f%%)\n", dropped, 100*float64(dropped)/float64(len(trace)))
	fmt.Printf("average field memory accesses per packet: %.2f\n", stats.AverageFieldAccesses())
	fmt.Printf("average label combinations presented per packet (modelled cross-product): %.2f\n", stats.AverageCombinations())
	fmt.Printf("average rule filter slots read per packet: %.2f\n", float64(stats.RuleFilterProbes)/float64(stats.Lookups))
	fmt.Printf("served %d lookups, %d matched (%.1f%%)\n",
		stats.Lookups, stats.Matches, 100*stats.MatchRate())

	// RuleCapacity is the field engine's Rule Filter (0 under a packet engine).
	report := rep.Memory
	fmt.Printf("IP engine %q memory in use: %.1f Kbit; rule filter occupancy: %d/%d rules\n",
		report.IPEngine, float64(report.IPEngineUsedBits)/1024, rep.RulesInstalled, rep.RuleCapacity)
}
