package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"time"

	"sdnpc"
	"sdnpc/internal/server"
)

// verdict is the part of a lookup result the oracle can check, in a form
// both the Go API and the wire API produce.
type verdict struct {
	matched  bool
	priority int
	action   string
	arg      uint32
}

// target is the system under test as the end-to-end phases see it. lookup
// and update return the time spent inside the one call into the system;
// everything the load generator does around that call is untimed.
type target interface {
	lookup(batch int) (time.Duration, error)
	update(op sdnpc.UpdateOp) (time.Duration, error)
	// classify returns verdicts for oracle verification (untimed).
	classify(hs []sdnpc.Header) ([]verdict, error)
	report() sdnpc.Report
}

// builder performs one fresh set-up of the system for a workload. Its build
// method is what setup_s times.
type builder interface {
	build() (target, error)
}

func newBuilder(w workload, in inputs) (builder, error) {
	if w.wire {
		return newWireBuilder(w, in)
	}
	return &apiBuilder{w: w, in: in}, nil
}

// --- Go API target ---------------------------------------------------------

type apiBuilder struct {
	w  workload
	in inputs
}

// build is the embedded user's set-up: construct with the engine selected,
// install the whole rule set, answer the first batch.
func (b *apiBuilder) build() (target, error) {
	c, err := sdnpc.New(b.w.options()...)
	if err != nil {
		return nil, err
	}
	if _, err := c.InsertAll(b.in.rules); err != nil {
		return nil, err
	}
	t := &apiTarget{c: c, reader: c.Reader(0), batches: b.in.batches, dst: make([]sdnpc.Result, batchSize)}
	if _, err := t.lookup(0); err != nil {
		return nil, err
	}
	return t, nil
}

type apiTarget struct {
	c       *sdnpc.Classifier
	reader  *sdnpc.Reader
	batches [][]sdnpc.Header
	dst     []sdnpc.Result
	ops     [1]sdnpc.UpdateOp
}

func (t *apiTarget) lookup(batch int) (time.Duration, error) {
	hs := t.batches[batch]
	t0 := time.Now()
	t.dst = t.reader.LookupBatchInto(t.dst, hs)
	return time.Since(t0), nil
}

func (t *apiTarget) update(op sdnpc.UpdateOp) (time.Duration, error) {
	t.ops[0] = op
	t0 := time.Now()
	_, errs, err := t.c.Apply(t.ops[:])
	d := time.Since(t0)
	if err != nil {
		return d, err
	}
	return d, errs[0]
}

func (t *apiTarget) classify(hs []sdnpc.Header) ([]verdict, error) {
	out := make([]verdict, len(hs))
	for i, r := range t.c.LookupBatch(hs) {
		out[i] = verdict{matched: r.Matched, priority: r.Priority, action: r.Action.String(), arg: r.ActionArg}
	}
	return out, nil
}

func (t *apiTarget) report() sdnpc.Report { return t.c.Report() }

// --- wire API target -------------------------------------------------------

const tenantID = "bench"

// wireBuilder holds the pre-encoded request bodies (the load generator's
// cost, paid once) and builds a fresh server + tenant per set-up.
type wireBuilder struct {
	createBody []byte
	rulesBody  []byte
	batchBody  [][]byte
	in         inputs
}

func newWireBuilder(w workload, in inputs) (*wireBuilder, error) {
	b := &wireBuilder{in: in}
	var err error
	b.createBody, err = json.Marshal(server.CreateTenantRequest{
		ID: tenantID, Engine: w.engine, CacheShards: w.cacheShards, CacheCapacity: w.cacheCapacity,
	})
	if err != nil {
		return nil, err
	}
	rules := in.rules.Rules()
	req := server.RulesRequest{Rules: make([]server.WireRule, len(rules))}
	for i, r := range rules {
		req.Rules[i] = wireRule(r)
	}
	if b.rulesBody, err = json.Marshal(req); err != nil {
		return nil, err
	}
	b.batchBody = make([][]byte, len(in.batches))
	for i, hs := range in.batches {
		if b.batchBody[i], err = encodeBatch(hs); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// build is the remote user's set-up: a fresh daemon handler, tenant create,
// rule download, first classify-batch — all through ServeHTTP.
func (b *wireBuilder) build() (target, error) {
	// Request logging stays on at the daemon's default level, written to
	// io.Discard: the handler pays for formatting as it would in service.
	srv := server.New(slog.New(slog.NewTextHandler(io.Discard, nil)))
	t := &wireTarget{
		handler:   srv.Handler(),
		srv:       srv,
		batchBody: b.batchBody,
		w:         &responseWriter{header: make(http.Header)},
	}
	var err error
	base := "/v1/tenants/" + tenantID
	if t.classifyReq, err = newRequest(http.MethodPost, base+"/classify-batch"); err != nil {
		return nil, err
	}
	if t.insertReq, err = newRequest(http.MethodPost, base+"/rules"); err != nil {
		return nil, err
	}
	if t.deleteReq, err = newRequest(http.MethodDelete, base+"/rules"); err != nil {
		return nil, err
	}
	createReq, err := newRequest(http.MethodPost, "/v1/tenants")
	if err != nil {
		return nil, err
	}
	if _, err := t.serve(createReq, b.createBody); err != nil {
		return nil, fmt.Errorf("tenant create: %w", err)
	}
	if _, err := t.serve(t.insertReq, b.rulesBody); err != nil {
		return nil, fmt.Errorf("rules download: %w", err)
	}
	if _, err := t.lookup(0); err != nil {
		return nil, err
	}
	return t, nil
}

type wireTarget struct {
	handler     http.Handler
	srv         *server.Server
	batchBody   [][]byte
	classifyReq *http.Request
	insertReq   *http.Request
	deleteReq   *http.Request
	body        bodyReader
	w           *responseWriter
}

// serve passes one request through the handler with a reused request, body
// reader and response writer, and returns the time inside ServeHTTP. A
// non-2xx status is an error.
func (t *wireTarget) serve(req *http.Request, body []byte) (time.Duration, error) {
	t.body.Reset(body)
	req.Body = &t.body
	req.ContentLength = int64(len(body))
	t.w.reset()
	t0 := time.Now()
	t.handler.ServeHTTP(t.w, req)
	d := time.Since(t0)
	if t.w.status < 200 || t.w.status > 299 {
		return d, fmt.Errorf("%s %s: status %d: %s", req.Method, req.URL.Path, t.w.status, bytes.TrimSpace(t.w.buf.Bytes()))
	}
	return d, nil
}

func (t *wireTarget) lookup(batch int) (time.Duration, error) {
	return t.serve(t.classifyReq, t.batchBody[batch])
}

// update sends a one-op request: POST of a bare rule inserts, DELETE with the
// rule as body deletes. Encoding the body is the client's cost and untimed.
func (t *wireTarget) update(op sdnpc.UpdateOp) (time.Duration, error) {
	body, err := json.Marshal(wireRule(op.Rule))
	if err != nil {
		return 0, err
	}
	if op.Delete {
		return t.serve(t.deleteReq, body)
	}
	d, err := t.serve(t.insertReq, body)
	if err != nil {
		return d, err
	}
	// A refused insert still answers 200 with a per-op error list.
	var resp server.RulesResponse
	if err := json.Unmarshal(t.w.buf.Bytes(), &resp); err != nil {
		return d, err
	}
	if resp.Installed != 1 {
		return d, fmt.Errorf("insert refused: %+v", resp.Errors)
	}
	return d, nil
}

func (t *wireTarget) classify(hs []sdnpc.Header) ([]verdict, error) {
	out := make([]verdict, 0, len(hs))
	for len(hs) > 0 {
		n := min(batchSize, len(hs))
		body, err := encodeBatch(hs[:n])
		if err != nil {
			return nil, err
		}
		if _, err := t.serve(t.classifyReq, body); err != nil {
			return nil, err
		}
		var resp server.ClassifyBatchResponse
		if err := json.Unmarshal(t.w.buf.Bytes(), &resp); err != nil {
			return nil, err
		}
		if len(resp.Results) != n {
			return nil, fmt.Errorf("classify-batch answered %d results for %d headers", len(resp.Results), n)
		}
		for _, r := range resp.Results {
			out = append(out, verdict{matched: r.Matched, priority: r.Priority, action: r.Action, arg: r.ActionArg})
		}
		hs = hs[n:]
	}
	return out, nil
}

func (t *wireTarget) report() sdnpc.Report {
	tenant, err := t.srv.Manager().Get(tenantID)
	if err != nil {
		return sdnpc.Report{}
	}
	return tenant.Classifier.Report()
}

func newRequest(method, path string) (*http.Request, error) {
	req, err := http.NewRequest(method, path, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return req, nil
}

func encodeBatch(hs []sdnpc.Header) ([]byte, error) {
	req := server.ClassifyBatchRequest{Headers: make([]server.WireHeader, len(hs))}
	for i, h := range hs {
		req.Headers[i] = server.WireHeader{
			SrcIP: h.SrcIP.String(), SrcPort: h.SrcPort,
			DstIP: h.DstIP.String(), DstPort: h.DstPort, Proto: h.Protocol,
		}
	}
	return json.Marshal(req)
}

// wireRule is the wire form of a five-tuple rule (the benchmark's filter
// sets use no extended dimension).
func wireRule(r sdnpc.Rule) server.WireRule {
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

// bodyReader is a resettable request body.
type bodyReader struct{ bytes.Reader }

func (*bodyReader) Close() error { return nil }

// responseWriter is a reusable in-memory http.ResponseWriter.
type responseWriter struct {
	header http.Header
	status int
	buf    bytes.Buffer
}

func (w *responseWriter) reset() {
	clear(w.header)
	w.status = http.StatusOK
	w.buf.Reset()
}

func (w *responseWriter) Header() http.Header         { return w.header }
func (w *responseWriter) WriteHeader(status int)      { w.status = status }
func (w *responseWriter) Write(p []byte) (int, error) { return w.buf.Write(p) }
