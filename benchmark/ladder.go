package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"sdnpc"
	"sdnpc/internal/algo/dcfl"
	"sdnpc/internal/algo/hypercuts"
	"sdnpc/internal/algo/mbt"
	"sdnpc/internal/cache"
	"sdnpc/internal/core"
	"sdnpc/internal/engine"
	"sdnpc/internal/label"
)

// The ladder measures each layer from outside: the same fixed trace prefix is
// passed once through one exported call of each layer, innermost first, and a
// layer's own cost is its rung minus the rung below. Work per rung is fixed
// (not timed out), so the counters read around a rung repeat exactly for a
// given seed.
const ladderChunk = 4096 // headers per recorded span

// ladderSize is the fixed amount of work the ladders do. The command uses
// standardLadder; tests shrink it.
type ladderSize struct {
	headers int           // trace prefix passed through every lookup rung
	ops     int           // delete/insert pairs per update-ladder rung
	minRung time.Duration // a rung repeats its pass until this has elapsed; the fastest pass counts
}

func (w workload) standardLadder() ladderSize {
	return ladderSize{headers: w.ladderHeaders, ops: 128, minRung: 500 * time.Millisecond}
}

// sink and sinkAny keep the compiler from discarding calls whose result is
// unused.
var (
	sink    int
	sinkAny any
)

// ladder carries what every rung needs.
type ladder struct {
	w     workload
	in    inputs
	size  ladderSize
	hs    []sdnpc.Header // the fixed trace prefix
	rec   *recorder
	root  int // parent span of the rung spans
	m     map[string]float64
	rules []sdnpc.Rule
}

// pass calls fn(0..n-1), one span per call, and returns the CPU time the
// pass took (spans are wall time; the rung figures are not, so stolen
// processor time stays out of them).
func (ld *ladder) pass(name string, parent, n int, fn func(i int)) time.Duration {
	cpu := processCPU()
	for i := 0; i < n; i++ {
		id := ld.rec.begin(name, parent, i)
		fn(i)
		ld.rec.end(id)
	}
	return processCPU() - cpu
}

// rung is one step of the lookup ladder: the whole trace prefix through one
// exported call of one layer.
type rung struct {
	metric string // ns per header
	span   string
	fn     func(chunk []sdnpc.Header)
	best   time.Duration
}

// climb passes the trace prefix through every rung in turn, round after
// round, until the rungs have had size.minRung each on average, and keeps
// each rung's fastest pass. Going round the rungs, instead of finishing one
// before starting the next, gives every rung samples from the same stretches
// of time, so a slow spell of the host does not land on one rung alone.
func (ld *ladder) climb(rungs []rung) {
	budget := time.Duration(len(rungs)) * ld.size.minRung
	for start := time.Now(); rungs[0].best == 0 || time.Since(start) < budget; {
		for i := range rungs {
			r := &rungs[i]
			if d := ld.pass(r.span, ld.root, ld.chunks(), ld.chunked(r.fn)); r.best == 0 || d < r.best {
				r.best = d
			}
		}
	}
	for _, r := range rungs {
		ld.m[r.metric] = float64(r.best) / float64(len(ld.hs))
	}
}

// best repeats a pass of n calls until size.minRung has elapsed and returns
// the fastest pass (the wire rungs, which are per request, not per chunk).
func (ld *ladder) best(name string, n int, fn func(i int)) time.Duration {
	id := ld.rec.begin("ladder."+name, ld.root, 0)
	defer ld.rec.end(id)
	best := time.Duration(0)
	for start := time.Now(); best == 0 || time.Since(start) < ld.size.minRung; {
		if d := ld.pass(name, id, n, fn); best == 0 || d < best {
			best = d
		}
	}
	return best
}

// chunks is the number of ladderChunk-header spans the trace prefix makes.
func (ld *ladder) chunks() int { return (len(ld.hs) + ladderChunk - 1) / ladderChunk }

// chunked adapts a function over headers to a per-span function.
func (ld *ladder) chunked(fn func(chunk []sdnpc.Header)) func(i int) {
	return func(i int) { fn(ld.hs[i*ladderChunk : min((i+1)*ladderChunk, len(ld.hs))]) }
}

// perHeader adapts a one-header call to a chunk function.
func perHeader(fn func(h sdnpc.Header)) func([]sdnpc.Header) {
	return func(chunk []sdnpc.Header) {
		for _, h := range chunk {
			fn(h)
		}
	}
}

// perBatch adapts a batch call to a chunk function.
func perBatch(fn func(hs []sdnpc.Header)) func([]sdnpc.Header) {
	return func(chunk []sdnpc.Header) {
		for i := 0; i < len(chunk); i += batchSize {
			fn(chunk[i:min(i+batchSize, len(chunk))])
		}
	}
}

// allocMark notes the heap allocation counters; since reports the
// allocations (count, bytes) made after the mark.
type allocMark struct{ mallocs, bytes uint64 }

func markAllocs() allocMark {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return allocMark{m.Mallocs, m.TotalAlloc}
}

func (a allocMark) since() (mallocs, bytes float64) {
	now := markAllocs()
	return float64(now.mallocs - a.mallocs), float64(now.bytes - a.bytes)
}

// --- structures built by the benchmark itself, below the core ---------------

// packetAlgo is the part of a whole-packet structure (internal/algo/hypercuts,
// internal/algo/dcfl) the ladder calls.
type packetAlgo interface {
	Classify(h sdnpc.Header) (int, bool, int)
	InsertAt(r sdnpc.Rule, idx int) error
	DeleteAt(idx int) error
}

func buildAlgo(name string, rs *sdnpc.RuleSet) (packetAlgo, error) {
	switch name {
	case "hypercuts":
		return hypercuts.Build(rs, hypercuts.DefaultConfig())
	case "dcfl":
		return dcfl.Build(rs)
	default:
		return nil, fmt.Errorf("no structure-level ladder for engine %q", name)
	}
}

func cloneAlgo(a packetAlgo) packetAlgo {
	switch v := a.(type) {
	case *hypercuts.Classifier:
		return v.Clone()
	case *dcfl.Classifier:
		return v.Clone()
	}
	return nil
}

// fieldTier is the seven per-dimension field engines of the paper's
// architecture, programmed by the benchmark the way the core programs its
// own: one dense label per unique field value, carrying the best priority of
// the rules that use it. Every snapshot carries this tier, whichever tier
// answers lookups, so its clone cost is part of every update.
//
// The core does not export its tier, so this is a replica: algo.lookup_ns and
// engine.lookup_ns on field_exact (and core.combine_self_ns, derived from
// them) time the same engines programmed with the same values, not the
// classifier's own instances. TestFieldTierReplicaMatchesCore holds the
// replica to what core.Lookup reports header by header — memory accesses,
// non-empty label lists, combinations — so it cannot drift unnoticed.
type fieldTier struct {
	engines [label.NumDimensions]engine.FieldEngine
	lists   [label.NumDimensions]label.List
}

func fieldValues(r sdnpc.Rule) [label.NumDimensions]engine.Value {
	srcHi, srcHiBits := r.SrcPrefix.HighSegment()
	srcLo, srcLoBits := r.SrcPrefix.LowSegment()
	dstHi, dstHiBits := r.DstPrefix.HighSegment()
	dstLo, dstLoBits := r.DstPrefix.LowSegment()
	proto := engine.Wildcard()
	if !r.Protocol.IsWildcard() {
		proto = engine.Exact(uint32(r.Protocol.Value))
	}
	return [label.NumDimensions]engine.Value{
		engine.Prefix(uint32(srcHi), srcHiBits), engine.Prefix(uint32(srcLo), srcLoBits),
		engine.Prefix(uint32(dstHi), dstHiBits), engine.Prefix(uint32(dstLo), dstLoBits),
		engine.Range(uint32(r.SrcPort.Lo), uint32(r.SrcPort.Hi)),
		engine.Range(uint32(r.DstPort.Lo), uint32(r.DstPort.Hi)),
		proto,
	}
}

func headerKeys(h sdnpc.Header) [label.NumDimensions]uint32 {
	return [label.NumDimensions]uint32{
		uint32(h.SrcIP.High16()), uint32(h.SrcIP.Low16()),
		uint32(h.DstIP.High16()), uint32(h.DstIP.Low16()),
		uint32(h.SrcPort), uint32(h.DstPort), uint32(h.Protocol),
	}
}

func buildFieldTier(rules []sdnpc.Rule, ipEngine string) (*fieldTier, error) {
	cfg := core.DefaultConfig()
	ft := &fieldTier{}
	for i, d := range label.Dimensions() {
		name, spec := ipEngine, engine.Spec{KeyBits: 16, LabelBits: d.Bits()}
		switch d {
		case label.DimSrcPort, label.DimDstPort:
			name, spec.Registers = "portreg", cfg.PortRegisters
		case label.DimProtocol:
			name, spec.KeyBits = "lut", 8
		}
		eng, err := engine.New(name, spec)
		if err != nil {
			return nil, err
		}
		ft.engines[i] = eng
	}
	var labels [label.NumDimensions]map[engine.Value]label.Label
	for i := range labels {
		labels[i] = make(map[engine.Value]label.Label)
	}
	for _, r := range rules {
		for i, v := range fieldValues(r) {
			lbl, ok := labels[i][v]
			if !ok {
				lbl = label.Label(len(labels[i]))
				labels[i][v] = lbl
			}
			if _, err := ft.engines[i].Insert(v, lbl, r.Priority); err != nil {
				return nil, fmt.Errorf("field tier, dimension %d: %w", i, err)
			}
		}
	}
	for _, eng := range ft.engines {
		if p, ok := eng.(engine.Preparer); ok {
			p.Prepare()
		}
	}
	return ft, nil
}

// lookup leaves the header's label lists in ft.lists and returns the memory
// accesses the engines made.
func (ft *fieldTier) lookup(h sdnpc.Header) (accesses int) {
	keys := headerKeys(h)
	for i, eng := range ft.engines {
		accesses += eng.LookupInto(keys[i], &ft.lists[i])
	}
	return accesses
}

func (ft *fieldTier) clone() {
	for _, eng := range ft.engines {
		if c, ok := eng.(engine.Cloner); ok {
			sinkAny = c.Clone()
		}
	}
}

// spareLabel is the last IP-segment label; the benchmark's filter sets never
// reach it.
var spareLabel = label.Label(label.DimSrcIPHigh.Capacity() - 1)

// ipAlgo is the four IP-segment structures (the paper's selectable "IP
// algorithm") built directly on internal/algo/mbt, below the engine adapter.
type ipAlgo struct {
	tries [4]*mbt.Engine
	lists [4]label.List
}

func buildIPAlgo(rules []sdnpc.Rule) (*ipAlgo, error) {
	ia := &ipAlgo{}
	cfg := mbt.SegmentConfig()
	cfg.LabelEntryBits = label.DimSrcIPHigh.Bits()
	var labels [4]map[engine.Value]label.Label
	for i := range ia.tries {
		t, err := mbt.New(cfg)
		if err != nil {
			return nil, err
		}
		ia.tries[i] = t
		labels[i] = make(map[engine.Value]label.Label)
	}
	for _, r := range rules {
		vals := fieldValues(r)
		for i := range ia.tries {
			v := vals[i]
			lbl, ok := labels[i][v]
			if !ok {
				lbl = label.Label(len(labels[i]))
				labels[i][v] = lbl
			}
			if _, err := ia.tries[i].Insert(v.Value, v.Bits, lbl, r.Priority); err != nil {
				return nil, err
			}
		}
	}
	return ia, nil
}

func (ia *ipAlgo) lookup(h sdnpc.Header) {
	keys := headerKeys(h)
	for i, t := range ia.tries {
		sink += t.LookupInto(keys[i], &ia.lists[i])
	}
}

// coreConfig is the core configuration the facade options of the workload
// produce; withCache=false drops the microflow cache so the rung below the
// cache can be measured on its own.
func coreConfig(w workload, withCache bool) core.Config {
	cfg := core.DefaultConfig()
	cfg.PacketEngine = w.engine
	if withCache {
		cfg.CacheShards, cfg.CacheCapacity = w.cacheShards, w.cacheCapacity
	}
	return cfg
}

func newCore(w workload, rs *sdnpc.RuleSet, withCache bool) (*core.Classifier, error) {
	cc, err := core.New(coreConfig(w, withCache))
	if err != nil {
		return nil, err
	}
	if _, err := cc.InstallRuleSet(rs); err != nil {
		return nil, err
	}
	return cc, nil
}

// --- lookup ladder -----------------------------------------------------------

func (ld *ladder) lookupLadder() error {
	w, m := ld.w, ld.m
	var rungs []rung
	add := func(metric, span string, fn func(chunk []sdnpc.Header)) {
		rungs = append(rungs, rung{metric: metric, span: span, fn: fn})
	}

	// Rungs 1 and 2: the structure, then the engine adapter around it.
	if w.engine == "" {
		ia, err := buildIPAlgo(ld.rules)
		if err != nil {
			return err
		}
		add("algo.lookup_ns", "algo.mbt.LookupInto", perHeader(ia.lookup))
		ft, err := buildFieldTier(ld.rules, "mbt")
		if err != nil {
			return err
		}
		add("engine.lookup_ns", "engine.FieldEngine.LookupInto", perHeader(func(h sdnpc.Header) { sink += ft.lookup(h) }))
	} else {
		alg, err := buildAlgo(w.engine, ld.in.rules)
		if err != nil {
			return err
		}
		add("algo.lookup_ns", "algo."+w.engine+".Classify", perHeader(func(h sdnpc.Header) {
			idx, _, _ := alg.Classify(h)
			sink += idx
		}))
		eng, err := engine.NewPacket(w.engine, engine.Spec{})
		if err != nil {
			return err
		}
		if err := eng.Install(ld.rules); err != nil {
			return err
		}
		add("engine.lookup_ns", "engine.PacketEngine.LookupPacket", perHeader(func(h sdnpc.Header) {
			idx, _, _ := eng.LookupPacket(h)
			sink += idx
		}))
	}

	// Rung 3: the core, cache off, one header per call. Rungs 4 and 5: the
	// worker-pinned Reader, per header and per batch.
	cc, err := newCore(w, ld.in.rules, false)
	if err != nil {
		return err
	}
	lookup := perHeader(func(h sdnpc.Header) { sink += cc.Lookup(h).Priority })
	add("core.lookup_ns", "core.Classifier.Lookup", lookup)
	reader := cc.Reader(0)
	add("core.reader_lookup_ns", "core.Reader.Lookup", perHeader(func(h sdnpc.Header) { sink += reader.Lookup(h).Priority }))
	dst := make([]core.Result, batchSize)
	batch := perBatch(func(hs []sdnpc.Header) { dst = reader.LookupBatchInto(dst, hs) })
	add("core.batch_ns_per_pkt", "core.Reader.LookupBatchInto", batch)

	// Rung 6: the public facade's allocating batch call (what the wire
	// handler uses).
	fc, err := sdnpc.New(w.options()...)
	if err != nil {
		return err
	}
	if _, err := fc.InsertAll(ld.in.rules); err != nil {
		return err
	}
	add("sdnpc.batch_ns_per_pkt", "sdnpc.Classifier.LookupBatch", perBatch(func(hs []sdnpc.Header) { sink += len(fc.LookupBatch(hs)) }))

	// Rung 7, cached workloads only: the core with the cache in front.
	if w.cacheCapacity > 0 {
		cached, err := newCore(w, ld.in.rules, true)
		if err != nil {
			return err
		}
		add("core.cached_lookup_ns", "core.Classifier.Lookup+cache", perHeader(func(h sdnpc.Header) { sink += cached.Lookup(h).Priority }))
		ld.cacheRungs()
	}

	// The data-plane counters are diffed over exactly one pass of rung 3,
	// allocations over one pass of rung 5.
	before := cc.Report().Stats
	lookup(ld.hs)
	after := cc.Report().Stats
	n := float64(after.Lookups - before.Lookups)
	m["core.combinations_per_lookup"] = float64(after.Combinations-before.Combinations) / n
	m["core.filter_probes_per_lookup"] = float64(after.RuleFilterProbes-before.RuleFilterProbes) / n
	m["core.field_accesses_per_lookup"] = float64(after.FieldAccesses-before.FieldAccesses) / n
	m["core.label_fetches_per_lookup"] = float64(after.LabelFetches-before.LabelFetches) / n
	mark := markAllocs()
	batch(ld.hs)
	mallocs, _ := mark.since()
	m["core.allocs_per_lookup"] = mallocs / float64(len(ld.hs))

	ld.climb(rungs)
	m["core.lookup_self_ns"] = m["core.lookup_ns"] - m["engine.lookup_ns"]
	if w.engine == "" {
		m["core.combine_self_ns"] = m["core.lookup_self_ns"]
	}
	m["core.scale2_ratio"] = ld.scale2(cc)
	return nil
}

// scale2 is the batch rung run by two Readers on two goroutines at once,
// divided by one Reader alone: 2.0 is perfect scaling on two processors.
// Reported only; it shares the host with nothing else but is never gated.
func (ld *ladder) scale2(cc *core.Classifier) float64 {
	run := func(workers int) time.Duration {
		var wg sync.WaitGroup
		start := time.Now()
		for wkr := 0; wkr < workers; wkr++ {
			wg.Add(1)
			go func(reader *core.Reader) {
				defer wg.Done()
				dst := make([]core.Result, batchSize)
				for i := 0; i+batchSize <= len(ld.hs); i += batchSize {
					dst = reader.LookupBatchInto(dst, ld.hs[i:i+batchSize])
				}
			}(cc.Reader(wkr))
		}
		wg.Wait()
		return time.Since(start)
	}
	id := ld.rec.begin("ladder.scale2", ld.root, 0)
	defer ld.rec.end(id)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(minProcessors)) // both readers need a processor
	one, two := run(1), run(2)
	return 2 * float64(one) / float64(two)
}

// cacheRungs measures the microflow cache on its own, below the core.
func (ld *ladder) cacheRungs() {
	w, m := ld.w, ld.m
	// Resident keys: a quarter of capacity, so no shard overflows.
	seen := make(map[sdnpc.Header]bool)
	var keys []sdnpc.Header
	for _, h := range ld.in.trace {
		if !seen[h] {
			seen[h] = true
			keys = append(keys, h)
			if len(keys) == w.cacheCapacity/4 {
				break
			}
		}
	}
	const gen = 1
	timeKeys := func(name string, fn func(h sdnpc.Header)) float64 {
		id := ld.rec.begin(name, ld.root, 0)
		for _, h := range keys {
			fn(h)
		}
		ld.rec.end(id)
		return float64(ld.rec.duration(id)) / float64(len(keys))
	}
	mf := cache.New[core.Result](w.cacheShards, w.cacheCapacity)
	m["cache.miss_put_ns"] = timeKeys("cache.Get+Put", func(h sdnpc.Header) {
		if _, ok := mf.Get(gen, h); !ok {
			mf.Put(gen, h, core.Result{Matched: true})
		}
	})
	hit := timeKeys("cache.Get", func(h sdnpc.Header) {
		if r, ok := mf.Get(gen, h); ok && r.Matched {
			sink++
		}
	})
	for i := 0; i < 8; i++ {
		hit = min(hit, timeKeys("cache.Get", func(h sdnpc.Header) {
			if r, ok := mf.Get(gen, h); ok && r.Matched {
				sink++
			}
		}))
	}
	m["cache.hit_ns"] = hit
}

// --- update ladder -----------------------------------------------------------

// updatePairs returns size.ops distinct base rules to delete and re-insert,
// a pure function of the seed.
func (ld *ladder) updatePairs(seed int64) []sdnpc.Rule {
	rng := rand.New(rand.NewSource(seed ^ 0x1add3))
	body := ld.rules[:len(ld.rules)-1]
	picks := rng.Perm(len(body))[:ld.size.ops]
	out := make([]sdnpc.Rule, len(picks))
	for i, p := range picks {
		out[i] = body[p]
	}
	return out
}

// timed runs fn under a span and returns its duration.
func (ld *ladder) timed(name string, parent, req int, fn func() error) (time.Duration, error) {
	id := ld.rec.begin(name, parent, req)
	err := fn()
	ld.rec.end(id)
	return ld.rec.duration(id), err
}

// medianUs is the median of the durations, in microseconds.
func medianUs(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds() * 1e6
	}
	return median(xs)
}

func (ld *ladder) updateLadder(seed int64) error {
	w, m := ld.w, ld.m
	root := ld.rec.begin("ladder.update", ld.root, 0)
	defer ld.rec.end(root)
	pairs := ld.updatePairs(seed)

	// Structure level: full build, then one delete + one insert per pair on
	// a private copy. On the field tier the structures are the IP tries.
	var (
		structure string
		build     func() error
		delta     func(r sdnpc.Rule) error
	)
	if w.engine == "" {
		var ia *ipAlgo
		structure = "algo.mbt"
		build = func() (err error) { ia, err = buildIPAlgo(ld.rules); return }
		delta = func(r sdnpc.Rule) error {
			// Under a label no rule holds, so the pair leaves the tries as
			// it found them.
			vals := fieldValues(r)
			for i, t := range ia.tries {
				if _, err := t.Insert(vals[i].Value, vals[i].Bits, spareLabel, r.Priority); err != nil {
					return err
				}
				if _, err := t.Remove(vals[i].Value, vals[i].Bits, spareLabel); err != nil {
					return err
				}
			}
			return nil
		}
	} else {
		var alg packetAlgo
		structure = "algo." + w.engine
		build = func() (err error) {
			if alg, err = buildAlgo(w.engine, ld.in.rules); err == nil {
				alg = cloneAlgo(alg)
			}
			return err
		}
		delta = func(r sdnpc.Rule) error {
			// Base priorities are positions in the best-first order.
			if err := alg.DeleteAt(r.Priority); err != nil {
				return err
			}
			return alg.InsertAt(r, r.Priority)
		}
	}
	d, err := ld.timed(structure+".Build", root, 0, build)
	if err != nil {
		return err
	}
	m["algo.build_ms"] = d.Seconds() * 1e3
	var deltaTotal time.Duration
	for req, r := range pairs {
		d, err := ld.timed(structure+".delete+insert", root, req, func() error { return delta(r) })
		if err != nil {
			return err
		}
		deltaTotal += d
	}
	m["algo.delta_ns"] = float64(deltaTotal) / float64(2*len(pairs))

	// Engine level: what one snapshot clone copies — the seven field engines
	// every snapshot carries, plus the packet engine's handle.
	ft, err := buildFieldTier(ld.rules, "mbt")
	if err != nil {
		return err
	}
	var pkt engine.PacketEngine
	if w.engine != "" {
		if pkt, err = engine.NewPacket(w.engine, engine.Spec{}); err != nil {
			return err
		}
		if err := pkt.Install(ld.rules); err != nil {
			return err
		}
	}
	var clones []time.Duration
	for req := 0; req < 16; req++ {
		d, _ := ld.timed("engine.Clone", root, req, func() error {
			ft.clone()
			if pkt != nil {
				sinkAny = pkt.Clone()
			}
			return nil
		})
		clones = append(clones, d)
	}
	m["engine.clone_us"] = medianUs(clones)

	// Core level: install, engine select, then single-rule deletes and
	// inserts through the clone-mutate-sync-swap path.
	var cc *core.Classifier
	if d, err = ld.timed("core.InstallRuleSet", root, 0, func() (err error) { cc, err = newCore(w, ld.in.rules, true); return }); err != nil {
		return err
	}
	m["core.install_ms"] = d.Seconds() * 1e3
	if w.engine != "" {
		plain := w
		plain.engine = ""
		sel, err := newCore(plain, ld.in.rules, true)
		if err != nil {
			return err
		}
		d, err := ld.timed("core.SelectEngine", root, 0, func() error { return sel.SelectEngine(w.engine) })
		if err != nil {
			return err
		}
		m["core.select_engine_ms"] = d.Seconds() * 1e3
	}
	var inserts, deletes []time.Duration
	mark := markAllocs()
	for req, r := range pairs {
		dd, err := ld.timed("core.Classifier.DeleteRule", root, req, func() error { _, err := cc.DeleteRule(r); return err })
		if err != nil {
			return err
		}
		di, err := ld.timed("core.Classifier.InsertRule", root, req, func() error { _, err := cc.InsertRule(r); return err })
		if err != nil {
			return err
		}
		deletes, inserts = append(deletes, dd), append(inserts, di)
	}
	mallocs, bytes := mark.since()
	m["core.delete_us"] = medianUs(deletes)
	m["core.insert_us"] = medianUs(inserts)
	m["core.update_self_us"] = m["core.insert_us"] - m["algo.delta_ns"]/1e3
	m["core.allocs_per_update"] = mallocs / float64(2*len(pairs))
	m["core.alloc_bytes_per_update"] = bytes / float64(2*len(pairs))

	// Facade level: one-op Apply batches, the call the end-to-end update
	// phase times.
	fc, err := sdnpc.New(w.options()...)
	if err != nil {
		return err
	}
	if _, err := fc.InsertAll(ld.in.rules); err != nil {
		return err
	}
	var applies []time.Duration
	for req, r := range pairs {
		for _, op := range []sdnpc.UpdateOp{{Delete: true, Rule: r}, {Rule: r}} {
			d, err := ld.timed("sdnpc.Classifier.Apply", root, req, func() error {
				_, errs, err := fc.Apply([]sdnpc.UpdateOp{op})
				if err != nil {
					return err
				}
				return errs[0]
			})
			if err != nil {
				return err
			}
			applies = append(applies, d)
		}
	}
	m["sdnpc.apply_us"] = medianUs(applies)
	return nil
}
