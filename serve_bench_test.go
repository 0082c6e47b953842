// The wire-API serving benchmark lives in the external test package: the
// daemon (internal/server) imports the sdnpc facade, so an in-package test
// importing the daemon would be an import cycle.
package sdnpc_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sdnpc/internal/bench"
	"sdnpc/internal/classbench"
	"sdnpc/internal/server"
)

// serveWorkload is the filter set and trace behind BenchmarkServe; 1K rules
// keeps setup fast while the trace still exercises varied flows.
var serveWorkload = bench.NewWorkload(classbench.ACL, classbench.Size1K, 5000)

// ---------------------------------------------------------------------------
// Wire-API serving path — the multi-tenant daemon of internal/server
// ---------------------------------------------------------------------------

// BenchmarkServe measures one classify-batch request through the full wire
// path: HTTP over loopback TCP, JSON decode, LookupBatch against the
// tenant's classifier, JSON encode. ns/op is per request (64 headers);
// lookups/s reports the per-header rate. This is the serving-layer
// counterpart of BenchmarkThroughput, and the benchgate regression gate in
// CI covers it.
func BenchmarkServe(b *testing.B) {
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	srv := server.New(quiet)
	t, err := srv.Manager().Create("bench", server.TenantConfig{Engine: "hypercuts", CacheCapacity: 4096})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := t.Classifier.InsertAll(serveWorkload.RuleSet); err != nil {
		b.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); _ = srv.Serve(ctx, ln) }()
	defer func() { cancel(); <-done }()
	url := "http://" + ln.Addr().String() + "/v1/tenants/bench/classify-batch"

	// Pre-marshal a rotation of distinct batch payloads so the benchmark
	// exercises varied flows without timing client-side marshalling.
	const batch = 64
	const payloads = 32
	trace := serveWorkload.Trace
	bodies := make([][]byte, payloads)
	for p := 0; p < payloads; p++ {
		req := server.ClassifyBatchRequest{Headers: make([]server.WireHeader, batch)}
		for i := 0; i < batch; i++ {
			h := trace[(p*batch+i)%len(trace)]
			req.Headers[i] = server.WireHeader{
				SrcIP: h.SrcIP.String(), SrcPort: h.SrcPort,
				DstIP: h.DstIP.String(), DstPort: h.DstPort, Proto: h.Protocol,
			}
		}
		buf, err := json.Marshal(req)
		if err != nil {
			b.Fatal(err)
		}
		bodies[p] = buf
	}

	// Per-client request rates are collected so load imbalance across the
	// parallel clients (and across the tenant's serving lanes) shows up as a
	// min/max spread beside the aggregate rate.
	type clientRate struct {
		requests int
		busy     time.Duration
	}
	var mu sync.Mutex
	var rates []clientRate

	var rotation atomic.Uint64
	start := time.Now()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		client := &http.Client{Timeout: 30 * time.Second}
		requests := 0
		clientStart := time.Now()
		for pb.Next() {
			body := bodies[rotation.Add(1)%payloads]
			resp, err := client.Post(url, "application/json", bytes.NewReader(body))
			if err != nil {
				b.Error(err)
				return
			}
			if resp.StatusCode != http.StatusOK {
				b.Errorf("classify-batch: %s", resp.Status)
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close()
			requests++
		}
		busy := time.Since(clientStart)
		mu.Lock()
		rates = append(rates, clientRate{requests: requests, busy: busy})
		mu.Unlock()
	})
	b.StopTimer()
	if elapsed := time.Since(start); elapsed > 0 {
		b.ReportMetric(float64(b.N*batch)/elapsed.Seconds(), "lookups/s")
	}
	minRPS, maxRPS := 0.0, 0.0
	for _, r := range rates {
		if r.requests == 0 || r.busy <= 0 {
			continue
		}
		rps := float64(r.requests) / r.busy.Seconds()
		if minRPS == 0 || rps < minRPS {
			minRPS = rps
		}
		if rps > maxRPS {
			maxRPS = rps
		}
	}
	if maxRPS > 0 {
		b.ReportMetric(minRPS*batch, "min_wkr_lookups/s")
		b.ReportMetric(maxRPS*batch, "max_wkr_lookups/s")
	}
}
