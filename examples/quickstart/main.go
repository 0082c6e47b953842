// Quickstart: build a classifier through the public sdnpc package, install a
// handful of rules with the fluent builder, classify a few packets, switch
// lookup engines at run time and print what each engine served and the
// memory it holds.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"sdnpc"
)

func main() {
	// The default configuration is the paper's evaluated geometry: MBT IP
	// lookup, 8K-rule filter, exact label combination.
	classifier, err := sdnpc.New()
	if err != nil {
		log.Fatalf("creating classifier: %v", err)
	}

	// A tiny access-control policy: allow web traffic to the DMZ, punt DNS
	// to the controller, drop everything else.
	rules := []sdnpc.Rule{
		sdnpc.NewRule(0).To("203.0.113.0/24").DstPort(443).Proto(sdnpc.TCP).Forward(1).MustBuild(),
		sdnpc.NewRule(1).From("10.0.0.0/8").DstPort(53).Proto(sdnpc.UDP).Punt().MustBuild(),
		sdnpc.WildcardRule(2, sdnpc.Drop),
	}
	for _, r := range rules {
		report, err := classifier.Insert(r)
		if err != nil {
			log.Fatalf("inserting rule %s: %v", r, err)
		}
		fmt.Printf("installed rule %d: %d new labels, %d engine writes, %d rule filter probes\n",
			r.Priority, report.NewLabels, report.EngineWrites, report.RuleFilterProbes)
	}

	packets := []sdnpc.Header{
		sdnpc.MustParseHeader("198.51.100.7", 50000, "203.0.113.10", 443, sdnpc.TCP),
		sdnpc.MustParseHeader("10.1.2.3", 5353, "8.8.8.8", 53, sdnpc.UDP),
		sdnpc.MustParseHeader("192.0.2.1", 1, "192.0.2.2", 2, sdnpc.GRE),
	}
	for _, h := range packets {
		result := classifier.Lookup(h)
		fmt.Printf("%-55s -> matched=%v action=%v priority=%d field accesses=%d\n",
			h, result.Matched, result.Action, result.Priority, result.FieldAccesses)
	}

	// Every registered engine of both tiers is selectable at run time — the
	// generalised IPalg_s signal of the paper, extended to the whole-packet
	// baselines of Table I. Sweep them all, classifying the packets again
	// under each one.
	fmt.Printf("\nregistered engines: %v\n", sdnpc.Engines())
	for _, name := range sdnpc.Engines() {
		if err := classifier.SelectEngine(name); err != nil {
			log.Fatalf("selecting %s: %v", name, err)
		}
		classifier.ResetStats()
		classifier.LookupBatch(packets)
		rep := classifier.Report()
		tier, nodeBits, capacity := "field ", rep.Memory.IPEngineUsedBits, fmt.Sprintf("%d-rule Rule Filter", rep.RuleCapacity)
		if rep.Memory.PacketEngine != "" {
			tier, nodeBits, capacity = "packet", rep.Memory.PacketEngineUsedBits, "no fixed capacity"
		}
		fmt.Printf("%-10s %s served %d lookups (%d matched, %4.1f field accesses each), %s, %7.1f Kbit node storage\n",
			name, tier, rep.Stats.Lookups, rep.Stats.Matches, rep.Stats.AverageFieldAccesses(),
			capacity, float64(nodeBits)/1024)
	}
}
