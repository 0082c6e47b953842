// Package loadgen drives HTTP load against the multi-tenant wire API of
// internal/server: it provisions tenants, installs generated filter sets and
// hammers classify-batch from concurrent clients, reporting lookups/s and
// wire-latency percentiles. It lives apart from internal/bench so that the
// cycle-accurate benchmark harness stays free of the serving layer (the
// daemon imports the sdnpc facade, whose in-package tests import
// internal/bench).
package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"sdnpc/internal/classbench"
	"sdnpc/internal/engine"
	"sdnpc/internal/fivetuple"
	"sdnpc/internal/server"
)

// ServeOptions parameterises the wire-API load generator: M concurrent
// clients hammering classify-batch across T tenants of one daemon, in the
// perftest shape of driving traffic for a window and diffing the counters.
type ServeOptions struct {
	// Addr targets a running daemon ("host:port"). Empty starts an
	// in-process server on a loopback port and tears it down afterwards.
	Addr string
	// Tenants is T, the number of classifier tables provisioned; <= 0
	// selects 2. Engines are assigned to tenants round-robin.
	Tenants int
	// Clients is M, the number of concurrent load connections; <= 0 selects
	// 4.
	Clients int
	// RequestsPerClient is how many classify-batch calls each client
	// issues; <= 0 selects 100.
	RequestsPerClient int
	// BatchSize is the headers per classify-batch request; <= 0 selects 64.
	BatchSize int
	// Engines are assigned to tenants round-robin; empty selects every
	// selectable engine of both tiers.
	Engines []string
	// Class and Size pick the per-tenant ClassBench filter set.
	Class classbench.Class
	Size  classbench.Size
	// ZipfSkew shapes each tenant's flow popularity (> 1); 0 selects 1.1,
	// a negative value disables the skew (independent draws).
	ZipfSkew float64
	// CacheShards and CacheCapacity configure each tenant's microflow
	// cache; CacheCapacity <= 0 disables it.
	CacheShards   int
	CacheCapacity int
	// Seed varies the generated traces; tenants are offset from it so no
	// two tenants replay the same flow population.
	Seed int64
}

// ServeTenantRow is the post-run accounting of one tenant, read back from
// its /stats endpoint — the served-lookup counter diff over the load window.
type ServeTenantRow struct {
	ID           string
	Engine       string
	Rules        int
	Lookups      uint64
	MatchRate    float64
	Cached       bool
	CacheHitRate float64
}

// ServeResult is the measured outcome of one load-generator run.
type ServeResult struct {
	Addr      string
	Tenants   int
	Clients   int
	BatchSize int
	// Requests and Packets are the totals issued by the generator; Errors
	// counts requests that failed (non-2xx or transport error).
	Requests int
	Packets  int
	Errors   int
	Elapsed  time.Duration
	// LookupsPerSec is Packets / Elapsed — the end-to-end wire serving
	// rate, JSON and TCP included.
	LookupsPerSec float64
	// WireP50 and WireP99 are per-request wall-clock latency quantiles as
	// the client saw them.
	WireP50 time.Duration
	WireP99 time.Duration
	// PerTenant is the per-tenant counter diff over the window.
	PerTenant []ServeTenantRow
}

// ServeLoad provisions T tenants on the target daemon (starting an
// in-process one when no address is given), installs each tenant's filter
// set through the wire API, then drives M concurrent clients issuing
// classify-batch requests round-robin across the tenants with Zipf-skewed
// per-tenant traces, and reports wire throughput, latency quantiles and the
// per-tenant counter diffs.
func ServeLoad(opts ServeOptions) (ServeResult, error) {
	tenants := opts.Tenants
	if tenants <= 0 {
		tenants = 2
	}
	clients := opts.Clients
	if clients <= 0 {
		clients = 4
	}
	requests := opts.RequestsPerClient
	if requests <= 0 {
		requests = 100
	}
	batch := opts.BatchSize
	if batch <= 0 {
		batch = 64
	}
	skew := opts.ZipfSkew
	if skew == 0 {
		skew = 1.1
	} else if skew < 0 {
		skew = 0
	}
	engines := opts.Engines
	if len(engines) == 0 {
		engines = engine.SelectableNames()
	}

	addr := opts.Addr
	if addr == "" {
		// In-process daemon on a loopback port: the load still crosses a
		// real TCP connection and the full JSON handler path, so the wire
		// latency is honest; only the network hop is loopback.
		quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return ServeResult{}, fmt.Errorf("bench: serve: %w", err)
		}
		srv := server.New(quiet)
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() { defer close(done); _ = srv.Serve(ctx, ln) }()
		defer func() { cancel(); <-done }()
		addr = ln.Addr().String()
	}
	base := "http://" + addr
	httpClient := &http.Client{Timeout: 30 * time.Second}

	// Provision the tenants over the wire: delete any leftover of the same
	// id (external daemons may be reused across runs), create, install the
	// filter set as one batch through the Apply path.
	rs := classbench.Generate(classbench.StandardConfig(opts.Class, opts.Size))
	wireRules := make([]server.WireRule, rs.Len())
	for i, r := range rs.Rules() {
		wireRules[i] = server.EncodeRule(r)
	}
	ids := make([]string, tenants)
	traces := make([][]fivetuple.Header, tenants)
	for t := 0; t < tenants; t++ {
		ids[t] = fmt.Sprintf("loadgen-%02d", t)
		req, _ := http.NewRequest(http.MethodDelete, base+"/v1/tenants/"+ids[t], nil)
		if resp, err := httpClient.Do(req); err == nil {
			_ = resp.Body.Close() // best-effort cleanup; 404 is the common case
		}
		if err := postJSON(httpClient, base+"/v1/tenants", server.CreateTenantRequest{
			ID:            ids[t],
			Engine:        engines[t%len(engines)],
			CacheShards:   opts.CacheShards,
			CacheCapacity: opts.CacheCapacity,
		}, nil); err != nil {
			return ServeResult{}, fmt.Errorf("bench: serve: creating tenant %s: %w", ids[t], err)
		}
		var rulesResp server.RulesResponse
		if err := postJSON(httpClient, base+"/v1/tenants/"+ids[t]+"/rules",
			server.RulesRequest{Rules: wireRules}, &rulesResp); err != nil {
			return ServeResult{}, fmt.Errorf("bench: serve: installing rules on %s: %w", ids[t], err)
		}
		// Every tenant replays its own flow population so the daemon serves
		// genuinely distinct traffic per table.
		traces[t] = classbench.GenerateTrace(rs, classbench.TraceConfig{
			Packets:       requests * batch,
			Seed:          opts.Seed + int64(t)*7919,
			MatchFraction: 0.9,
			Locality:      0.3,
			ZipfSkew:      skew,
		})
	}

	// Baseline counters, so external daemons report the diff over this load
	// window rather than their lifetime totals.
	before := make(map[string]uint64, tenants)
	for _, id := range ids {
		var ts server.WireTenantStats
		if err := getJSON(httpClient, base+"/v1/tenants/"+id+"/stats", &ts); err != nil {
			return ServeResult{}, fmt.Errorf("bench: serve: reading baseline stats of %s: %w", id, err)
		}
		before[id] = ts.Lookups
	}

	// The load window: M clients, each walking the tenants round-robin from
	// a client-specific offset, slicing batches out of the tenant's trace.
	type clientResult struct {
		latencies []time.Duration
		packets   int
		errors    int
	}
	results := make([]clientResult, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			res := clientResult{latencies: make([]time.Duration, 0, requests)}
			for r := 0; r < requests; r++ {
				t := (ci + r) % tenants
				trace := traces[t]
				pos := ((ci*requests + r) * batch) % len(trace)
				headers := make([]server.WireHeader, batch)
				for i := 0; i < batch; i++ {
					headers[i] = wireHeaderOf(trace[(pos+i)%len(trace)])
				}
				var batchResp server.ClassifyBatchResponse
				t0 := time.Now()
				err := postJSON(httpClient, base+"/v1/tenants/"+ids[t]+"/classify-batch",
					server.ClassifyBatchRequest{Headers: headers}, &batchResp)
				res.latencies = append(res.latencies, time.Since(t0))
				if err != nil {
					res.errors++
					continue
				}
				res.packets += batchResp.Report.Packets
			}
			results[ci] = res
		}(ci)
	}
	wg.Wait()
	elapsed := time.Since(start)

	out := ServeResult{
		Addr:      addr,
		Tenants:   tenants,
		Clients:   clients,
		BatchSize: batch,
		Elapsed:   elapsed,
	}
	var all []time.Duration
	for _, res := range results {
		all = append(all, res.latencies...)
		out.Packets += res.packets
		out.Errors += res.errors
		out.Requests += len(res.latencies)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	quantile := func(q float64) time.Duration {
		if len(all) == 0 {
			return 0
		}
		return all[int(q*float64(len(all)-1))]
	}
	out.WireP50 = quantile(0.50)
	out.WireP99 = quantile(0.99)
	if elapsed > 0 {
		out.LookupsPerSec = float64(out.Packets) / elapsed.Seconds()
	}

	// Per-tenant accounting: the served-lookup diff over the window plus
	// the match and cache hit rates the daemon reports.
	for _, id := range ids {
		var ts server.WireTenantStats
		if err := getJSON(httpClient, base+"/v1/tenants/"+id+"/stats", &ts); err != nil {
			return ServeResult{}, fmt.Errorf("bench: serve: reading stats of %s: %w", id, err)
		}
		row := ServeTenantRow{
			ID:        ts.ID,
			Engine:    ts.Engine,
			Rules:     ts.Rules,
			Lookups:   ts.Lookups - before[id],
			MatchRate: ts.MatchRate,
		}
		if ts.Cache != nil {
			row.Cached = true
			row.CacheHitRate = ts.Cache.HitRate
		}
		out.PerTenant = append(out.PerTenant, row)
	}
	return out, nil
}

// RenderServe renders the load-generator result as a report.
func RenderServe(res ServeResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Wire-API load generator — %d clients x classify-batch(%d) across %d tenants at %s\n",
		res.Clients, res.BatchSize, res.Tenants, res.Addr)
	fmt.Fprintf(&b, "%d requests (%d lookups, %d errors) in %v: %.0f lookups/s, wire latency p50 %v p99 %v\n",
		res.Requests, res.Packets, res.Errors, res.Elapsed.Round(time.Millisecond),
		res.LookupsPerSec, res.WireP50, res.WireP99)
	fmt.Fprintf(&b, "%-12s %-10s %8s %10s %8s %6s\n", "tenant", "engine", "rules", "lookups", "match%", "hit%")
	for _, row := range res.PerTenant {
		hit := "-"
		if row.Cached {
			hit = fmt.Sprintf("%.1f", 100*row.CacheHitRate)
		}
		fmt.Fprintf(&b, "%-12s %-10s %8d %10d %7.1f%% %6s\n",
			row.ID, row.Engine, row.Rules, row.Lookups, 100*row.MatchRate, hit)
	}
	return b.String()
}

// wireHeaderOf converts a generated header to its wire form.
func wireHeaderOf(h fivetuple.Header) server.WireHeader {
	return server.WireHeader{
		SrcIP:   h.SrcIP.String(),
		SrcPort: h.SrcPort,
		DstIP:   h.DstIP.String(),
		DstPort: h.DstPort,
		Proto:   h.Protocol,
	}
}

// postJSON posts body as JSON and decodes the response into out (skipped
// when out is nil). Non-2xx statuses surface as errors carrying the body.
func postJSON(c *http.Client, url string, body, out any) error {
	buf, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := c.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		return err
	}
	return decodeResponse(resp, out)
}

// getJSON fetches url and decodes the response into out.
func getJSON(c *http.Client, url string, out any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	return decodeResponse(resp, out)
}

func decodeResponse(resp *http.Response, out any) error {
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(msg)))
	}
	if out == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
