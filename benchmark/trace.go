package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"time"

	"sdnpc"
	"sdnpc/internal/server"
)

// perLayerMetrics is every metric a traced run can report. A run measures
// the ones whose layer its workload exercises (no cache → no cache.hit_ns, no
// wire → no server.* numbers); the others are absent from the trace file,
// printed as n/a, and 0 in the result line, which has to name them all.
// README.md tabulates which end-to-end metric each one is expected to move,
// on which workload.
var perLayerMetrics = []metricDef{
	// lookup ladder, ns per header
	{"algo.lookup_ns", "ns"},
	{"engine.lookup_ns", "ns"},
	{"core.lookup_ns", "ns"},
	{"core.lookup_self_ns", "ns"},
	{"core.combine_self_ns", "ns"},
	{"core.combinations_per_lookup", "count"},
	{"core.filter_probes_per_lookup", "count"},
	{"core.field_accesses_per_lookup", "count"},
	{"core.label_fetches_per_lookup", "count"},
	{"core.reader_lookup_ns", "ns"},
	{"core.batch_ns_per_pkt", "ns"},
	{"core.allocs_per_lookup", "count"},
	{"core.scale2_ratio", "ratio"},
	// cache
	{"cache.hit_ns", "ns"},
	{"cache.miss_put_ns", "ns"},
	{"cache.hit_ratio", "ratio"},
	{"cache.evictions", "count"},
	{"cache.stale", "count"},
	{"core.cached_lookup_ns", "ns"},
	// wire
	{"sdnpc.batch_ns_per_pkt", "ns"},
	{"server.decode_ns_per_pkt", "ns"},
	{"server.encode_ns_per_pkt", "ns"},
	{"server.handler_ns_per_pkt", "ns"},
	{"server.handler_self_ns_per_pkt", "ns"},
	{"server.allocs_per_request", "count"},
	{"server.alloc_bytes_per_request", "B"},
	{"server.loopback_ns_per_pkt", "ns"},
	{"server.rules_post_us", "us"},
	// update ladder
	{"algo.delta_ns", "ns"},
	{"algo.build_ms", "ms"},
	{"engine.clone_us", "us"},
	{"core.insert_us", "us"},
	{"core.delete_us", "us"},
	{"core.update_self_us", "us"},
	{"core.publish_p50_us", "us"},
	{"core.publish_p99_us", "us"},
	{"core.delta_publishes", "count"},
	{"core.rebuilds", "count"},
	{"core.deltas_since_rebuild", "count"},
	{"core.allocs_per_update", "count"},
	{"core.alloc_bytes_per_update", "B"},
	{"sdnpc.apply_us", "us"},
	{"core.install_ms", "ms"},
	{"core.select_engine_ms", "ms"},
	{"classbench.generate_s", "s"},
	// the end-to-end pass: update timing (too noisy on a shared host to
	// gate), runtime, and the cost of tracing itself
	{"e2e.updates_per_s", "1/s"},
	{"e2e.update_p99_us", "us"},
	{"runtime.lookup_num_gc", "count"},
	{"runtime.lookup_gc_pause_ms", "ms"},
	{"runtime.update_num_gc", "count"},
	{"runtime.update_gc_pause_ms", "ms"},
	{"trace.overhead_frac", "ratio"},
}

// tracedShare is the part of --seconds the traced run spends on its own
// end-to-end pass (the rest of the time goes to the fixed-work ladders).
const tracedShare = 3

// runTraced is the --trace 1 run: the lookup and update ladders, the wire
// rungs, and one shortened end-to-end pass with a span around every call,
// all written to out/trace-<workload>.json. It reports the per-layer metrics
// only; end-to-end metrics are always measured with tracing off.
func runTraced(w workload, in inputs, seed int64, p plan, size ladderSize, generateS float64, outDir string) (result, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	rec := newRecorder()
	root := rec.begin("run", 0, 0)
	m := map[string]float64{"classbench.generate_s": generateS}
	ld := &ladder{w: w, in: in, size: size, hs: in.trace[:min(size.headers, len(in.trace))], rec: rec, m: m, rules: in.rules.Rules()}

	ld.root = rec.begin("ladder.lookup", root, 0)
	if err := ld.lookupLadder(); err != nil {
		return result{}, err
	}
	rec.end(ld.root)
	ld.root = root
	if err := ld.updateLadder(seed); err != nil {
		return result{}, err
	}
	if w.wire {
		ld.root = rec.begin("ladder.wire", root, 0)
		if err := ld.wireLadder(seed); err != nil {
			return result{}, err
		}
		rec.end(ld.root)
	}

	// The end-to-end pass, traced: per update op and per wire request one
	// span; in-process lookups one span per ladderChunk headers.
	e2eSpan := rec.begin("e2e", root, 0)
	lookupName, updateName := "core.Reader.LookupBatchInto", "sdnpc.Classifier.Apply"
	if w.wire {
		lookupName, updateName = "server.classify-batch", "server.rules"
	}
	hook := spanHook(rec, e2eSpan, lookupName, updateName, w.wire)
	short := plan{unit: p.unit / tracedShare}
	e2e, t, err := runEndToEnd(w, in, seed, short, hook)
	if err != nil {
		return result{}, err
	}
	rec.end(e2eSpan)

	rep := t.report()
	m["cache.hit_ratio"] = rep.Cache.HitRate() // a measured 0 without a cache: no lookup went through one
	if w.cacheCapacity > 0 {
		m["cache.evictions"] = float64(rep.Cache.Evictions)
		m["cache.stale"] = float64(rep.Cache.StaleGenerations)
	}
	m["core.publish_p50_us"] = rep.Updates.PublishLatency.P50().Seconds() * 1e6
	m["core.publish_p99_us"] = rep.Updates.PublishLatency.P99().Seconds() * 1e6
	m["core.delta_publishes"] = float64(rep.Updates.DeltaPublishes)
	m["core.rebuilds"] = float64(rep.Updates.Rebuilds)
	m["core.deltas_since_rebuild"] = float64(rep.Updates.DeltasSinceRebuild)
	m["e2e.updates_per_s"] = e2e.updates.rate()
	m["e2e.update_p99_us"] = e2e.updates.p99Us()
	m["runtime.lookup_num_gc"] = float64(e2e.lookups.heap.total.numGC)
	m["runtime.lookup_gc_pause_ms"] = e2e.lookups.heap.total.pauseMs
	m["runtime.update_num_gc"] = float64(e2e.updates.heap.total.numGC)
	m["runtime.update_gc_pause_ms"] = e2e.updates.heap.total.pauseMs
	m["trace.overhead_frac"] = traceOverhead(t, len(in.batches), hook, short.unit)
	rec.end(root)

	layers := layerTable(rec.spans)
	path, err := writeTrace(outDir, traceFile{Workload: w.name, Seed: seed, Metrics: m, Layers: layers, Spans: rec.spans})
	if err != nil {
		return result{}, err
	}
	fmt.Printf("# %d spans written to %s\n", len(rec.spans), path)
	fmt.Printf("# %-44s %8s %14s %14s\n", "layer (span name)", "count", "total_ms", "self_ms")
	for _, row := range layers {
		fmt.Printf("# %-44s %8d %14.3f %14.3f\n", row.Name, row.Count, float64(row.TotalNs)/1e6, float64(row.SelfNs)/1e6)
	}
	return report(perLayerMetrics, m, e2e.attempted, e2e.failed), nil
}

// spanHook returns the loop's onCall callback for a traced end-to-end pass.
func spanHook(rec *recorder, parent int, lookupName, updateName string, perRequest bool) func(string, time.Time, time.Duration) {
	const callsPerSpan = ladderChunk / batchSize
	var (
		req        int
		calls      int
		chunkStart time.Time
	)
	return func(kind string, start time.Time, d time.Duration) {
		switch {
		case kind == "update":
			rec.add(updateName, parent, req, start, d)
			req++
		case perRequest:
			rec.add(lookupName, parent, req, start, d)
			req++
		default:
			if calls == 0 {
				chunkStart = start
			}
			if calls++; calls == callsPerSpan {
				rec.add(lookupName, parent, req, chunkStart, start.Add(d).Sub(chunkStart))
				calls = 0
				req++
			}
		}
	}
}

// traceOverhead alternates untraced and traced lookup slices on the warm
// target and returns the share of the lookup rate (per second of CPU time,
// recorder included) that span recording costs:
// 1 - median(traced rate) / median(untraced rate).
func traceOverhead(t target, batches int, hook func(string, time.Time, time.Duration), slice time.Duration) float64 {
	const pairs = 6
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	l := &loop{t: t, batches: batches}
	l.lookups = newStream(batches, 1, batchSize)
	var off, on []float64
	for i := 0; i < 2*pairs; i++ {
		l.onCall = nil
		if i%2 == 1 {
			l.onCall = hook
		}
		work := 0
		cpu := processCPU()
		for start := time.Now(); time.Since(start) < slice; {
			l.lookupOnce()
			work += batchSize
		}
		r := rate(work, processCPU()-cpu)
		if i%2 == 1 {
			on = append(on, r)
		} else {
			off = append(off, r)
		}
	}
	if median(off) == 0 {
		return 0
	}
	return 1 - median(on)/median(off)
}

// --- wire rungs --------------------------------------------------------------

// wireLadder times the handler and the pieces of a classify-batch request it
// is made of: JSON decode of the request, the facade batch call (measured by
// the lookup ladder), JSON encode of the response. What is left is the
// handler's own cost (mux, logging, header conversion, buffers).
func (ld *ladder) wireLadder(seed int64) error {
	w, m := ld.w, ld.m
	b, err := newWireBuilder(w, ld.in)
	if err != nil {
		return err
	}
	built, err := b.build()
	if err != nil {
		return err
	}
	t := built.(*wireTarget)
	n := len(ld.hs) / batchSize
	bodies := b.batchBody[:n]
	perPkt := func(d time.Duration) float64 { return float64(d) / float64(n*batchSize) }

	// Handler rung; the first pass also keeps each response for the encode
	// rung.
	responses := make([]server.ClassifyBatchResponse, n)
	var serveErr error
	ld.pass("server.classify-batch", ld.root, n, func(i int) {
		if _, err := t.lookup(i); err != nil {
			serveErr = err
			return
		}
		if err := json.Unmarshal(t.w.buf.Bytes(), &responses[i]); err != nil {
			serveErr = err
		}
	})
	if serveErr != nil {
		return serveErr
	}
	serve := func(i int) {
		if _, err := t.lookup(i); err != nil {
			serveErr = err
		}
	}
	m["server.handler_ns_per_pkt"] = perPkt(ld.best("server.classify-batch", n, serve))
	mark := markAllocs()
	for i := 0; i < n; i++ {
		serve(i)
	}
	mallocs, bytesAlloc := mark.since()
	m["server.allocs_per_request"] = mallocs / float64(n)
	m["server.alloc_bytes_per_request"] = bytesAlloc / float64(n)

	m["server.decode_ns_per_pkt"] = perPkt(ld.best("json.Unmarshal(ClassifyBatchRequest)", n, func(i int) {
		var req server.ClassifyBatchRequest
		if err := json.Unmarshal(bodies[i], &req); err != nil {
			serveErr = err
		}
		sink += len(req.Headers)
	}))
	var buf bytes.Buffer
	m["server.encode_ns_per_pkt"] = perPkt(ld.best("json.Encode(ClassifyBatchResponse)", n, func(i int) {
		buf.Reset()
		if err := json.NewEncoder(&buf).Encode(&responses[i]); err != nil {
			serveErr = err
		}
	}))
	m["server.handler_self_ns_per_pkt"] = m["server.handler_ns_per_pkt"] - m["server.decode_ns_per_pkt"] -
		m["server.encode_ns_per_pkt"] - m["sdnpc.batch_ns_per_pkt"]

	// One-op rule requests: DELETE then POST of the same rule.
	var posts []time.Duration
	for req, r := range ld.updatePairs(seed) {
		id := ld.rec.begin("server.rules", ld.root, req)
		_, err := t.update(sdnpc.UpdateOp{Delete: true, Rule: r})
		ld.rec.end(id)
		if err != nil {
			return err
		}
		id = ld.rec.begin("server.rules", ld.root, req)
		_, err = t.update(sdnpc.UpdateOp{Rule: r})
		ld.rec.end(id)
		if err != nil {
			return err
		}
		posts = append(posts, ld.rec.duration(id))
	}
	m["server.rules_post_us"] = medianUs(posts)

	if serveErr != nil {
		return serveErr
	}
	ns, err := ld.loopback(t, bodies)
	if err != nil {
		// Indicative rung only: a host without a usable loopback interface
		// still gets every other number.
		fmt.Fprintln(os.Stderr, "loopback rung skipped:", err)
		return nil
	}
	m["server.loopback_ns_per_pkt"] = ns
	return nil
}

// loopback sends the same classify-batch bodies over one keep-alive TCP
// connection on 127.0.0.1. It is the only place the benchmark opens a socket
// and it is never gated: on two shared processors client, server and kernel
// contend and the number spreads tens of percent.
func (ld *ladder) loopback(t *wireTarget, bodies [][]byte) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(minProcessors)) // client and server each get a processor
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- t.srv.Serve(ctx, ln) }()
	defer func() {
		cancel()
		<-served
	}()
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}, Timeout: 30 * time.Second}
	defer client.CloseIdleConnections()
	url := "http://" + ln.Addr().String() + "/v1/tenants/" + tenantID + "/classify-batch"

	// Wall time: the server's half of the work runs on other threads, so the
	// calling thread's CPU clock would miss it.
	var postErr error
	post := func(i int) {
		resp, err := client.Post(url, "application/json", bytes.NewReader(bodies[i]))
		if err != nil {
			postErr = err
			return
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			postErr = err
		}
		if err := resp.Body.Close(); err != nil {
			postErr = err
		}
		if resp.StatusCode != http.StatusOK {
			postErr = fmt.Errorf("classify-batch over loopback: %s", resp.Status)
		}
	}
	id := ld.rec.begin("ladder.http.Post(loopback)", ld.root, 0)
	d := time.Duration(0)
	for start := time.Now(); d == 0 || time.Since(start) < ld.size.minRung; {
		passStart := time.Now()
		ld.pass("http.Post(loopback)", id, len(bodies), post)
		if wall := time.Since(passStart); d == 0 || wall < d {
			d = wall
		}
	}
	ld.rec.end(id)
	if postErr != nil {
		return 0, postErr
	}
	return float64(d) / float64(len(bodies)*batchSize), nil
}
