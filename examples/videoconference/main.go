// Videoconference example: the scenario §III.A of the paper uses to motivate
// configurability. A multi-end videoconferencing service needs lookup speed
// above all, so the controller selects the MBT engine; a logging / archival
// application with a very large rule filter instead needs capacity, so it
// selects the BST engine. This example quantifies the trade-off on the same
// rule set by switching the engine-selection signal at run time through the
// public sdnpc package.
//
// Run with:
//
//	go run ./examples/videoconference
package main

import (
	"fmt"
	"log"

	"sdnpc"
)

func main() {
	// The conferencing service's flows: RTP/RTCP port ranges towards the
	// media bridge plus signalling, layered on top of an ACL-style policy.
	policy := sdnpc.MustGenerateRuleSet("acl", "1k")
	media := []sdnpc.Rule{
		sdnpc.NewRule(0).To("198.51.100.0/24").DstPorts(16384, 32767).Proto(sdnpc.UDP).Forward(7).MustBuild(), // RTP media
		sdnpc.NewRule(0).To("198.51.100.0/24").DstPort(5061).Proto(sdnpc.TCP).Forward(7).MustBuild(),          // SIP over TLS signalling
	}
	// Media rules take the highest priorities so conferencing traffic never
	// falls through to the slower policy rules.
	rules := append(media, policy.Rules()...)
	ruleSet := sdnpc.NewRuleSet("videoconference", rules)

	classifier, err := sdnpc.New()
	if err != nil {
		log.Fatalf("creating classifier: %v", err)
	}
	if _, err := classifier.InsertAll(ruleSet); err != nil {
		log.Fatalf("installing rules: %v", err)
	}

	trace := sdnpc.GenerateTrace(ruleSet, sdnpc.TraceOptions{
		Packets: 30000, Seed: 23, MatchFraction: 0.95, Locality: 0.7,
	})

	fmt.Println("Application requirement A: real-time multi-end videoconferencing (speed critical)")
	runPhase(classifier, ruleSet, trace, "mbt")

	fmt.Println("\nApplication requirement B: flow archival with very large rule filters (capacity critical)")
	runPhase(classifier, ruleSet, trace, "bst")
}

func runPhase(classifier *sdnpc.Classifier, ruleSet *sdnpc.RuleSet, trace []sdnpc.Header, engineName string) {
	if err := classifier.SelectEngine(engineName); err != nil {
		log.Fatalf("selecting %s: %v", engineName, err)
	}
	classifier.ResetStats()
	mismatches := 0
	for _, h := range trace {
		wantIdx, wantOK := ruleSet.Classify(h)
		got := classifier.Lookup(h)
		if got.Matched != wantOK || (wantOK && got.Priority != wantIdx) {
			mismatches++
		}
	}
	rep := classifier.Report()
	stats, report := rep.Stats, rep.Memory
	fmt.Printf("  controller selects the %q engine\n", engineName)
	fmt.Printf("  served %d lookups, %d matched; %.2f label combinations presented and %.2f rule filter slots read per packet\n",
		stats.Lookups, stats.Matches, stats.AverageCombinations(),
		float64(stats.RuleFilterProbes)/float64(stats.Lookups))
	fmt.Printf("  rule capacity (the field engine's Rule Filter): %d rules; IP-engine memory in use: %.1f Kbit\n",
		rep.RuleCapacity, float64(report.IPEngineUsedBits)/1024)
	fmt.Printf("  verdict mismatches against the reference: %d of %d packets (avg %.2f field accesses)\n",
		mismatches, len(trace), stats.AverageFieldAccesses())
}
