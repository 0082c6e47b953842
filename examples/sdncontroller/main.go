// SDN controller example: the full control loop of Fig. 1/Fig. 2 on one
// machine. A controller owns an ACL policy and pushes it to a software switch
// over the OpenFlow-like control channel; the switch classifies traffic with
// the configurable architecture; DNS flows are punted to the controller,
// which reacts by installing a more specific rule at run time (the
// incremental-update path of §IV.A).
//
// Rules, headers and workloads come from the public sdnpc package; the
// controller / data-plane pair itself is the internal reference
// implementation of the control loop.
//
// Run with:
//
//	go run ./examples/sdncontroller
package main

import (
	"fmt"
	"log"
	"net"
	"sync/atomic"
	"time"

	"sdnpc"
	"sdnpc/internal/core"
	"sdnpc/internal/sdn/controller"
	"sdnpc/internal/sdn/dataplane"
	"sdnpc/internal/sdn/openflow"
)

func main() {
	policy := sdnpc.MustGenerateRuleSet("acl", "1k")

	// Punt DNS to the controller so it can decide per-resolver policies.
	dnsRule := sdnpc.NewRule(0).From("10.0.0.0/8").DstPort(53).Proto(sdnpc.UDP).Punt().MustBuild()
	rules := append([]sdnpc.Rule{dnsRule}, policy.Rules()...)
	ruleSet := sdnpc.NewRuleSet("sdn-policy", rules)

	var punts atomic.Uint64
	ctrl := controller.New(ruleSet, controller.ProfileThroughput, func(sw string, p openflow.PacketIn) {
		punts.Add(1)
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	go func() { _ = ctrl.Serve(ln) }()
	defer ctrl.Stop()

	sw, err := dataplane.New(core.DefaultConfig())
	if err != nil {
		log.Fatalf("dataplane: %v", err)
	}
	defer sw.Close()
	if err := sw.Connect(ln.Addr().String()); err != nil {
		log.Fatalf("connect: %v", err)
	}
	waitForRules(sw, ruleSet.Len())
	fmt.Printf("switch programmed with %d rules over %s (IP engine %q)\n",
		sw.Classifier().RuleCount(), ln.Addr(), sw.Classifier().ActiveEngineName())

	// A client resolves names: the first packets are punted to the controller.
	dnsQuery := sdnpc.MustParseHeader("10.20.30.40", 40000, "192.0.2.53", 53, sdnpc.UDP)
	for i := 0; i < 3; i++ {
		if _, err := sw.ProcessPacket(dnsQuery); err != nil {
			log.Fatalf("processing packet: %v", err)
		}
	}
	waitFor(func() bool { return punts.Load() >= 3 })
	fmt.Printf("controller received %d packet-in messages for DNS traffic\n", punts.Load())

	// The controller reacts by installing a specific allow rule for this
	// resolver at the highest priority and retiring the punt-everything
	// rule — two incremental flow-mods on the §IV.A update path.
	allowResolver := sdnpc.NewRule(0).
		From("10.0.0.0/8").To("192.0.2.53/32").
		DstPort(53).Proto(sdnpc.UDP).
		Forward(2).MustBuild()
	if err := ctrl.AddRule(allowResolver); err != nil {
		log.Fatalf("pushing incremental rule: %v", err)
	}
	waitForRules(sw, ruleSet.Len()+1)
	if err := ctrl.RemoveRule(dnsRule); err != nil {
		log.Fatalf("removing punt rule: %v", err)
	}
	waitFor(func() bool { return sw.Classifier().RuleCount() == ruleSet.Len() })
	fmt.Println("controller swapped the punt rule for a specific allow rule (3 clock cycles of upload per flow-mod)")

	verdict, err := sw.ProcessPacket(dnsQuery)
	if err != nil {
		log.Fatalf("processing packet: %v", err)
	}
	fmt.Printf("subsequent DNS packets are now handled in hardware: action=%v egress port=%d (punted=%v)\n",
		verdict.Action, verdict.EgressPort, verdict.PuntedToController)

	// The controller can also re-programme the lookup engine by name over
	// the control channel — the generalised IPalg_s signal.
	if err := ctrl.SelectEngine("bst"); err != nil {
		log.Fatalf("selecting engine: %v", err)
	}
	waitFor(func() bool { return sw.Classifier().ActiveEngineName() == "bst" })
	fmt.Printf("controller re-programmed the data plane to the %q engine (capacity %d rules)\n",
		sw.Classifier().ActiveEngineName(), sw.Classifier().RuleCapacity())

	// Background traffic keeps flowing through the policy.
	trace := sdnpc.GenerateTrace(policy, sdnpc.TraceOptions{Packets: 5000, Seed: 3, MatchFraction: 0.9})
	for _, h := range trace {
		if _, err := sw.ProcessPacket(h); err != nil {
			log.Fatalf("processing packet: %v", err)
		}
	}
	counters := sw.Counters()
	fmt.Printf("\nswitch counters: total=%d forwarded=%d dropped=%d punted=%d table-miss=%d flow-adds=%d\n",
		counters.Total, counters.Forwarded, counters.Dropped, counters.Punted, counters.TableMiss, counters.FlowAdds)
	fmt.Printf("controller packet-ins: %d\n", ctrl.PacketIns())
}

func waitForRules(sw *dataplane.Switch, want int) {
	waitFor(func() bool { return sw.Classifier().RuleCount() >= want })
}

func waitFor(cond func() bool) {
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			log.Fatal("timed out waiting for the control plane")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
