// SDN controller example: the full control loop of Fig. 1/Fig. 2 on one
// machine, over the wire API — the control channel of §III. The data plane
// is the multi-tenant daemon's HTTP handler on a loopback listener; the
// controller is a plain net/http client. It downloads an ACL policy plus a
// rule punting DNS to itself, sees the punt as a "controller" verdict (the
// packet-in), reacts by installing a more specific rule at run time (the
// incremental-update path of §IV.A) and re-programmes the lookup engine (the
// IPalg_s signal).
//
// Rules, headers and workloads come from the public sdnpc package; the wire
// types and the handler from internal/server (see docs/SERVICE.md).
//
// Run with:
//
//	go run ./examples/sdncontroller
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net"
	"net/http"

	"sdnpc"
	"sdnpc/internal/server"
)

// controller is the control-plane side of the channel: a base URL.
type controller string

// call sends one JSON request to the data plane and decodes the reply into
// out (skipped when nil); any non-2xx answer ends the example.
func (c controller) call(method, path string, body, out any) {
	fail := func(err error) {
		if err != nil {
			log.Fatalf("%s %s: %v", method, path, err)
		}
	}
	var payload io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		fail(err)
		payload = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, string(c)+path, payload)
	fail(err)
	resp, err := http.DefaultClient.Do(req)
	fail(err)
	defer func() { _ = resp.Body.Close() }()
	reply, err := io.ReadAll(resp.Body)
	fail(err)
	if resp.StatusCode/100 != 2 {
		fail(fmt.Errorf("%s: %s", resp.Status, reply))
	}
	if out != nil {
		fail(json.Unmarshal(reply, out))
	}
}

func wireHeader(h sdnpc.Header) server.WireHeader {
	return server.WireHeader{SrcIP: h.SrcIP.String(), SrcPort: h.SrcPort, DstIP: h.DstIP.String(), DstPort: h.DstPort, Proto: h.Protocol}
}

func main() {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	// The data plane serves until the process exits; Serve's error is that exit.
	go func() { _ = http.Serve(ln, server.New(quiet).Handler()) }()
	ctrl := controller("http://" + ln.Addr().String())
	const table = "/v1/tenants/edge"

	// Download the policy as one flow-mod batch: the ACL plus, ahead of it,
	// a rule punting DNS to the controller so it can decide per resolver.
	policy := sdnpc.MustGenerateRuleSet("acl", "1k")
	dnsRule := sdnpc.NewRule(0).From("10.0.0.0/8").DstPort(53).Proto(sdnpc.UDP).Punt().MustBuild()
	ruleSet := sdnpc.NewRuleSet("sdn-policy", append([]sdnpc.Rule{dnsRule}, policy.Rules()...))
	download := server.RulesRequest{}
	for _, r := range ruleSet.Rules() {
		download.Rules = append(download.Rules, server.EncodeRule(r))
	}
	var tenant server.WireTenant
	var installed server.RulesResponse
	ctrl.call(http.MethodPost, "/v1/tenants", server.CreateTenantRequest{ID: "edge", Engine: "mbt"}, &tenant)
	ctrl.call(http.MethodPost, table+"/rules", download, &installed)
	fmt.Printf("data plane programmed with %d rules over %s (engine %q)\n", installed.Rules, ctrl, tenant.Engine)

	// A client resolves names: the verdict sends the packet to the controller.
	dnsQuery := wireHeader(sdnpc.MustParseHeader("10.20.30.40", 40000, "192.0.2.53", 53, sdnpc.UDP))
	var verdict server.WireResult
	ctrl.call(http.MethodPost, table+"/classify", dnsQuery, &verdict)
	fmt.Printf("DNS query: action=%s (packet-in: the flow is punted to the controller)\n", verdict.Action)

	// The controller reacts by installing a specific allow rule for this
	// resolver at the highest priority and retiring the punt-everything
	// rule — two incremental flow-mods on the §IV.A update path.
	allowResolver := sdnpc.NewRule(0).From("10.0.0.0/8").To("192.0.2.53/32").
		DstPort(53).Proto(sdnpc.UDP).Forward(2).MustBuild()
	ctrl.call(http.MethodPost, table+"/rules", server.EncodeRule(allowResolver), nil)
	ctrl.call(http.MethodDelete, table+"/rules", server.EncodeRule(ruleSet.Rule(0)), nil)
	ctrl.call(http.MethodPost, table+"/classify", dnsQuery, &verdict)
	fmt.Printf("controller swapped the punt rule for a specific allow rule; DNS query: action=%s egress port=%d\n",
		verdict.Action, verdict.ActionArg)

	// The controller can also re-programme the lookup engine by name over
	// the control channel — the generalised IPalg_s signal.
	ctrl.call(http.MethodPut, table+"/engine", map[string]string{"engine": "bst"}, nil)
	ctrl.call(http.MethodGet, table, nil, &tenant)
	fmt.Printf("controller re-programmed the data plane to the %q engine (Rule Filter capacity %d rules)\n", tenant.Engine, tenant.RuleCapacity)

	// Background traffic keeps flowing through the policy.
	var batch server.ClassifyBatchRequest
	for _, h := range sdnpc.GenerateTrace(policy, sdnpc.TraceOptions{Packets: 5000, Seed: 3, MatchFraction: 0.9}) {
		batch.Headers = append(batch.Headers, wireHeader(h))
	}
	var replay server.ClassifyBatchResponse
	ctrl.call(http.MethodPost, table+"/classify-batch", batch, &replay)
	fmt.Printf("replayed %d trace headers: %d matched\n", replay.Report.Packets, replay.Report.Matched)

	var stats server.WireTenantStats
	ctrl.call(http.MethodGet, table+"/stats", nil, &stats)
	fmt.Printf("\ndata-plane counters: lookups=%d matched=%d rules=%d flow-adds=%d flow-deletes=%d\n",
		stats.Lookups, stats.Matched, stats.Rules, stats.Update.Inserts, stats.Update.Deletes)
}
