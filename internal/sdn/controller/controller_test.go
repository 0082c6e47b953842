// Package controller_test integration-tests the SDN control loop: a
// controller and a data-plane switch talking the openflow package's protocol
// over a loopback TCP connection, with classification performed by the
// configurable architecture.
package controller_test

import (
	"net"
	"sync"
	"testing"
	"time"

	"sdnpc/internal/classbench"
	"sdnpc/internal/core"
	"sdnpc/internal/fivetuple"
	"sdnpc/internal/hw/memory"
	"sdnpc/internal/sdn/controller"
	"sdnpc/internal/sdn/dataplane"
	"sdnpc/internal/sdn/openflow"
)

// waitFor polls the condition until it holds or the deadline expires.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// startController creates a controller serving on a loopback listener.
func startController(t *testing.T, rs *fivetuple.RuleSet, profile controller.ApplicationProfile, handler controller.PacketInHandler) (*controller.Controller, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	ctrl := controller.New(rs, profile, handler)
	go func() {
		_ = ctrl.Serve(ln)
	}()
	t.Cleanup(ctrl.Stop)
	return ctrl, ln.Addr().String()
}

func startSwitch(t *testing.T, addr string) *dataplane.Switch {
	t.Helper()
	sw, err := dataplane.New(core.DefaultConfig())
	if err != nil {
		t.Fatalf("dataplane.New: %v", err)
	}
	if err := sw.Connect(addr); err != nil {
		t.Fatalf("Connect: %v", err)
	}
	t.Cleanup(sw.Close)
	return sw
}

func TestApplicationProfileMapping(t *testing.T) {
	if controller.ProfileThroughput.Algorithm() != memory.SelectMBT {
		t.Error("throughput profile should select the MBT")
	}
	if controller.ProfileCapacity.Algorithm() != memory.SelectBST {
		t.Error("capacity profile should select the BST")
	}
	if controller.ProfileThroughput.String() != "throughput" || controller.ProfileCapacity.String() != "capacity" {
		t.Error("profile names are wrong")
	}
	if controller.ApplicationProfile(9).String() == "" {
		t.Error("unknown profile should still render")
	}
}

func TestControllerDownloadsRuleSetOnConnect(t *testing.T) {
	rs := classbench.Generate(classbench.Config{Class: classbench.ACL, Rules: 120, Seed: 3})
	ctrl, addr := startController(t, rs, controller.ProfileThroughput, nil)
	sw := startSwitch(t, addr)

	waitFor(t, "rule download", func() bool {
		return sw.Counters().FlowAdds == uint64(rs.Len())
	})
	if got := sw.Classifier().RuleCount(); got != rs.Len() {
		t.Fatalf("classifier holds %d rules, want %d", got, rs.Len())
	}
	if sw.Classifier().ActiveEngineName() != "mbt" {
		t.Errorf("engine = %q, want mbt for the throughput profile", sw.Classifier().ActiveEngineName())
	}
	if len(ctrl.Switches()) != 1 {
		t.Errorf("controller sees %d switches, want 1", len(ctrl.Switches()))
	}

	// Classification on the downloaded table agrees with the reference.
	trace := classbench.GenerateTrace(rs, classbench.TraceConfig{Packets: 100, Seed: 6, MatchFraction: 0.9})
	for _, h := range trace {
		wantIdx, wantOK := rs.Classify(h)
		verdict, err := sw.ProcessPacket(h)
		if err != nil {
			t.Fatalf("ProcessPacket: %v", err)
		}
		if verdict.Matched != wantOK || (wantOK && verdict.RulePriority != wantIdx) {
			t.Fatalf("verdict %+v, reference (%v, %d)", verdict, wantOK, wantIdx)
		}
	}
}

func TestCapacityProfileSelectsBST(t *testing.T) {
	rs := classbench.Generate(classbench.Config{Class: classbench.ACL, Rules: 50, Seed: 5})
	_, addr := startController(t, rs, controller.ProfileCapacity, nil)
	sw := startSwitch(t, addr)
	waitFor(t, "algorithm selection", func() bool {
		return sw.Classifier().ActiveEngineName() == "bst"
	})
	waitFor(t, "rule download", func() bool {
		return sw.Counters().FlowAdds == uint64(rs.Len())
	})
}

func TestIncrementalAddRemoveAndAlgorithmSwitch(t *testing.T) {
	rs := classbench.Generate(classbench.Config{Class: classbench.ACL, Rules: 60, Seed: 7})
	ctrl, addr := startController(t, rs, controller.ProfileThroughput, nil)
	sw := startSwitch(t, addr)
	waitFor(t, "initial download", func() bool {
		return sw.Counters().FlowAdds == uint64(rs.Len())
	})

	// Push one more rule at run time, at the highest priority so it shadows
	// the generated set's default rule.
	extra := fivetuple.Rule{
		SrcPrefix: fivetuple.MustParsePrefix("203.0.113.0/24"),
		DstPrefix: fivetuple.MustParsePrefix("198.51.100.0/24"),
		SrcPort:   fivetuple.WildcardPortRange(),
		DstPort:   fivetuple.ExactPort(8443),
		Protocol:  fivetuple.ExactProtocol(fivetuple.ProtoTCP),
		Priority:  0,
		Action:    fivetuple.ActionForward,
		ActionArg: 3,
	}
	if err := ctrl.AddRule(extra); err != nil {
		t.Fatalf("AddRule: %v", err)
	}
	waitFor(t, "incremental add", func() bool {
		return sw.Counters().FlowAdds == uint64(rs.Len()+1)
	})
	h := fivetuple.Header{
		SrcIP: fivetuple.MustParseIPv4("203.0.113.9"), DstIP: fivetuple.MustParseIPv4("198.51.100.7"),
		SrcPort: 5000, DstPort: 8443, Protocol: fivetuple.ProtoTCP,
	}
	verdict, err := sw.ProcessPacket(h)
	if err != nil {
		t.Fatalf("ProcessPacket: %v", err)
	}
	if !verdict.Matched || verdict.RulePriority != extra.Priority {
		t.Fatalf("verdict %+v, want the freshly pushed rule", verdict)
	}
	if len(ctrl.Rules()) != rs.Len()+1 {
		t.Errorf("controller rule count = %d, want %d", len(ctrl.Rules()), rs.Len()+1)
	}

	// Remove it again.
	if err := ctrl.RemoveRule(extra); err != nil {
		t.Fatalf("RemoveRule: %v", err)
	}
	waitFor(t, "incremental delete", func() bool {
		return sw.Counters().FlowDels == 1
	})
	if len(ctrl.Rules()) != rs.Len() {
		t.Errorf("controller rule count after remove = %d, want %d", len(ctrl.Rules()), rs.Len())
	}

	// Reconfigure the IP algorithm at run time (the IPalg_s signal).
	if err := ctrl.SelectAlgorithm(memory.SelectBST); err != nil {
		t.Fatalf("SelectAlgorithm: %v", err)
	}
	waitFor(t, "algorithm switch", func() bool {
		return sw.Classifier().ActiveEngineName() == "bst"
	})
	if ctrl.Algorithm() != memory.SelectBST {
		t.Error("controller did not record the new algorithm")
	}
	if err := ctrl.SelectAlgorithm(memory.AlgSelect(77)); err == nil {
		t.Error("SelectAlgorithm with an unknown algorithm should fail")
	}
	// Classification still agrees with the reference after the switch.
	trace := classbench.GenerateTrace(rs, classbench.TraceConfig{Packets: 50, Seed: 11, MatchFraction: 1})
	for _, hh := range trace {
		wantIdx, wantOK := rs.Classify(hh)
		verdict, err := sw.ProcessPacket(hh)
		if err != nil {
			t.Fatalf("ProcessPacket: %v", err)
		}
		if verdict.Matched != wantOK || (wantOK && verdict.RulePriority != wantIdx) {
			t.Fatalf("post-switch verdict %+v, reference (%v, %d)", verdict, wantOK, wantIdx)
		}
	}
}

func TestPacketInReachesController(t *testing.T) {
	// A rule whose action is "controller" punts matching packets; the
	// controller's handler must observe them.
	var (
		mu     sync.Mutex
		punted []openflow.PacketIn
	)
	handler := func(sw string, p openflow.PacketIn) {
		mu.Lock()
		defer mu.Unlock()
		punted = append(punted, p)
	}
	rules := []fivetuple.Rule{
		{
			SrcPrefix: fivetuple.MustParsePrefix("0.0.0.0/0"),
			DstPrefix: fivetuple.MustParsePrefix("0.0.0.0/0"),
			SrcPort:   fivetuple.WildcardPortRange(),
			DstPort:   fivetuple.ExactPort(53),
			Protocol:  fivetuple.ExactProtocol(fivetuple.ProtoUDP),
			Priority:  0,
			Action:    fivetuple.ActionController,
		},
	}
	rs := fivetuple.NewRuleSet("punt", rules)
	ctrl, addr := startController(t, rs, controller.ProfileThroughput, handler)
	sw := startSwitch(t, addr)
	waitFor(t, "rule download", func() bool { return sw.Counters().FlowAdds == 1 })

	h := fivetuple.Header{
		SrcIP: fivetuple.MustParseIPv4("10.0.0.1"), DstIP: fivetuple.MustParseIPv4("8.8.8.8"),
		SrcPort: 5353, DstPort: 53, Protocol: fivetuple.ProtoUDP,
	}
	verdict, err := sw.ProcessPacket(h)
	if err != nil {
		t.Fatalf("ProcessPacket: %v", err)
	}
	if !verdict.PuntedToController {
		t.Fatalf("verdict %+v, want a punt", verdict)
	}
	// A table miss is also punted.
	miss := fivetuple.Header{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Protocol: fivetuple.ProtoGRE}
	if _, err := sw.ProcessPacket(miss); err != nil {
		t.Fatalf("ProcessPacket(miss): %v", err)
	}
	waitFor(t, "packet-in delivery", func() bool { return ctrl.PacketIns() == 2 })
	mu.Lock()
	defer mu.Unlock()
	if len(punted) != 2 || punted[0].Header != h {
		t.Fatalf("handler saw %+v", punted)
	}
	counters := sw.Counters()
	if counters.Punted != 2 || counters.TableMiss != 1 || counters.Total != 2 {
		t.Errorf("switch counters = %+v", counters)
	}
}

func TestControllerStopIsIdempotentAndRejectsFurtherWork(t *testing.T) {
	rs := classbench.Generate(classbench.Config{Class: classbench.ACL, Rules: 10, Seed: 1})
	ctrl, addr := startController(t, rs, controller.ProfileThroughput, nil)
	sw := startSwitch(t, addr)
	waitFor(t, "download", func() bool { return sw.Counters().FlowAdds == uint64(rs.Len()) })
	ctrl.Stop()
	ctrl.Stop() // idempotent
	if err := ctrl.AddRule(fivetuple.Wildcard(99, fivetuple.ActionDrop)); err == nil {
		t.Error("AddRule after Stop should fail")
	}
	if err := ctrl.SelectAlgorithm(memory.SelectBST); err == nil {
		t.Error("SelectAlgorithm after Stop should fail")
	}
}

func TestSwitchWithoutControllerReportsPuntFailure(t *testing.T) {
	sw, err := dataplane.New(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// No rules, no controller: a packet is a table miss that cannot be
	// punted.
	_, err = sw.ProcessPacket(fivetuple.Header{Protocol: fivetuple.ProtoTCP})
	if err == nil {
		t.Error("ProcessPacket without a controller should report the punt failure")
	}
}

func TestSelectEnginePropagatesToSwitch(t *testing.T) {
	rs := classbench.Generate(classbench.Config{Class: classbench.ACL, Rules: 20, Seed: 4})
	ctrl, addr := startController(t, rs, controller.ProfileThroughput, nil)
	sw := startSwitch(t, addr)
	waitFor(t, "download", func() bool { return sw.Classifier().RuleCount() == rs.Len() })

	if err := ctrl.SelectEngine("segtree"); err == nil {
		t.Error("a typo'd engine name should fail locally")
	}
	if got := ctrl.EngineName(); got != "" {
		t.Errorf("failed selection should not change state, got %q", got)
	}
	if err := ctrl.SelectEngine("segtrie"); err != nil {
		t.Fatalf("SelectEngine(segtrie): %v", err)
	}
	waitFor(t, "engine switch", func() bool { return sw.Classifier().ActiveEngineName() == "segtrie" })
	if sw.Classifier().RuleCount() != rs.Len() {
		t.Errorf("rules after engine switch = %d, want %d", sw.Classifier().RuleCount(), rs.Len())
	}

	// A late-joining switch receives the name-based selection during the
	// handshake download.
	sw2 := startSwitch(t, addr)
	waitFor(t, "late download", func() bool {
		return sw2.Classifier().RuleCount() == rs.Len() && sw2.Classifier().ActiveEngineName() == "segtrie"
	})
}
