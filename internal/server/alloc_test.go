package server_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"sdnpc/internal/classbench"
	"sdnpc/internal/server"
)

// maxClassifyBatchAllocs bounds the objects one 64-header classify-batch
// request allocates through the whole handler tree (mux, request logging,
// body read, decode, lookup, encode). The encoding/json handler allocated
// 289; the pooled codec allocates per request, not per header.
const maxClassifyBatchAllocs = 16

// reusedWriter is an http.ResponseWriter recycled across requests, so the
// count below is the handler's, not a recorder's.
type reusedWriter struct {
	header http.Header
	status int
	buf    bytes.Buffer
}

func (w *reusedWriter) Header() http.Header         { return w.header }
func (w *reusedWriter) WriteHeader(status int)      { w.status = status }
func (w *reusedWriter) Write(p []byte) (int, error) { return w.buf.Write(p) }

// reusedBody is a request body reset before each request.
type reusedBody struct{ bytes.Reader }

func (*reusedBody) Close() error { return nil }

// TestClassifyBatchAllocs runs a 64-header classify-batch through ServeHTTP
// with a reused request, body and writer, and bounds its allocations.
func TestClassifyBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation bound skipped under -race (see race_on_test.go)")
	}
	_, h := newTestServer()
	wantStatus(t, do(t, h, "POST", "/v1/tenants", server.CreateTenantRequest{ID: "alloc", Engine: "hypercuts"}), http.StatusCreated)
	rs := classbench.Generate(classbench.StandardConfig(classbench.ACL, classbench.Size1K))
	wire := make([]server.WireRule, rs.Len())
	for i, r := range rs.Rules() {
		wire[i] = wireRuleFrom(r)
	}
	wantStatus(t, do(t, h, "POST", "/v1/tenants/alloc/rules", map[string]any{"rules": wire}), http.StatusOK)

	trace := classbench.GenerateTrace(rs, classbench.TraceConfig{Packets: 64, Seed: 7, MatchFraction: 0.8})
	req := server.ClassifyBatchRequest{Headers: make([]server.WireHeader, len(trace))}
	for i, hd := range trace {
		req.Headers[i] = server.WireHeader{
			SrcIP: hd.SrcIP.String(), SrcPort: hd.SrcPort,
			DstIP: hd.DstIP.String(), DstPort: hd.DstPort, Proto: hd.Protocol,
		}
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}

	r := httptest.NewRequest("POST", "/v1/tenants/alloc/classify-batch", nil)
	r.ContentLength = int64(len(body))
	rd := &reusedBody{}
	w := &reusedWriter{header: make(http.Header)}
	serve := func() {
		rd.Reset(body)
		r.Body = rd
		clear(w.header)
		w.status = http.StatusOK
		w.buf.Reset()
		h.ServeHTTP(w, r)
	}
	allocs := testing.AllocsPerRun(200, serve)
	if w.status != http.StatusOK {
		t.Fatalf("classify-batch: status %d (%s)", w.status, w.buf.String())
	}
	var resp server.ClassifyBatchResponse
	if err := json.Unmarshal(w.buf.Bytes(), &resp); err != nil || len(resp.Results) != len(trace) {
		t.Fatalf("classify-batch answered %d results for %d headers (%v)", len(resp.Results), len(trace), err)
	}
	t.Logf("%.1f allocs per 64-header request", allocs)
	if allocs > maxClassifyBatchAllocs {
		t.Fatalf("a 64-header classify-batch allocates %.1f objects, want ≤ %d", allocs, maxClassifyBatchAllocs)
	}
}
