package main

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"

	"sdnpc"
)

// The measured time (--seconds) is shared out in units of seconds/planUnits:
// one unit of warm-up, then twelve rounds of lookupUnits units of lookups, a
// quarter of a unit of updates (whole churn cycles) and a sixth of a unit of
// fresh set-ups. The three kinds of work alternate, instead of running as
// three long phases, so that a disturbance of the shared host lasting many
// seconds cannot cover the whole of any one of them. Lookups get four fifths
// of the run because both gated timings come from them, and the tail latency
// needs every batch position to meet the host in a quiet moment at least once
// (below); the update path is gated on what it allocates, which a dozen
// cycles settle. A shorter --seconds shrinks every part by the same factor
// (the smoke test). planUnits is also the default of --seconds and
// run_seconds in BENCHMARK.json (schema_test.go checks), so a unit is a
// second.
const (
	planUnits   = 30 // 1 + rounds*(lookupUnits + 1/updateShare + 1/setupShare)
	rounds      = 12
	lookupUnits = 2
	updateShare = 4 // a round's updates get 1/updateShare of a unit, rounded up to whole cycles
	setupShare  = 6 // a round's set-ups get 1/setupShare of a unit
	minSetups   = 5 // builds before the first round, whatever they take
	// updateBlock is the number of consecutive update ops whose CPU time is
	// summed before the fastest repetition is taken. The ops allocate (up to
	// 1.6 MB each) and a collection comes every 3 to 9 of them, so a block
	// holds its share of collections whichever repetition is the fastest; a
	// single op would be taken at a repetition without one.
	updateBlock = churnCycle / 4
)

// The estimators. The load is a fixed sequence of calls that repeats — the
// trace, batch by batch, and the churn cycle, op by op — and interference
// from the host only ever makes a call slower, in spells that can last most
// of a run. So each piece of the sequence is taken at its fastest repetition
// (type fastest) and every piece counts:
//
//   - a rate is the work of the whole sequence over the sum of its pieces'
//     CPU times (process clock: the collector and any helper goroutine are
//     charged, stolen time is not); a piece is a group of lookup batches or a
//     block of update ops, long enough to hold its share of whatever the
//     calls amortise;
//   - a p99 latency is the 99th percentile, over the positions of the
//     sequence, of each call's wall time: the expensive calls of the
//     workload (the batch of hard headers, the op that pays the rebuild),
//     not the moments the host was busy;
//   - set-up time is the fastest of the builds, which all do the same work.
//
// The tail is the fragile one: a batch position whose every repetition met a
// busy host lands in the top percent by construction, so a run needs enough
// repetitions of its slowest-cycling position (field_exact: 30) for that not
// to happen; a sum over the positions hardly notices.
//
// All work over all wall time inside the calls spreads 15-30 % between runs
// of the same code on the build host. The figures above leave 2-5 % within
// one state of the host, but the host has states, minutes long, in which the
// same binary runs 10 % apart whatever is measured; so the three timings are
// bounded at 25 % (NOISE.md). The update timings spread no less and are
// reported, not gated: what gates the update path is what the ops allocate
// (bytes and objects per op), which repeats to 0.1 %.
const tailQuantile = 0.99

type plan struct {
	unit time.Duration // --seconds / planUnits
}

func newPlan(seconds float64) plan {
	return plan{unit: time.Duration(seconds / planUnits * float64(time.Second))}
}

// oracle is the linear reference classifier. It tracks the ops applied to
// the system, so its verdicts stay the ground truth after the update phase.
type oracle struct {
	base []sdnpc.Rule
	dead map[int]bool // by priority; base priorities are unique positions
}

func newOracle(rs *sdnpc.RuleSet) *oracle {
	return &oracle{base: rs.Rules(), dead: make(map[int]bool)}
}

func (o *oracle) apply(op sdnpc.UpdateOp) { o.dead[op.Rule.Priority] = op.Delete }

// verify re-classifies the sample through the target and through
// RuleSet.Classify over the live rules, returning how many verdicts were
// checked and how many disagreed.
func (o *oracle) verify(t target, sample []sdnpc.Header) (attempted, failed int, err error) {
	live := make([]sdnpc.Rule, 0, len(o.base))
	for _, r := range o.base {
		if !o.dead[r.Priority] {
			live = append(live, r)
		}
	}
	// NewRuleSet renumbers priorities to positions; live[i] keeps the
	// priority the system was given.
	ref := sdnpc.NewRuleSet("oracle", live)
	got, err := t.classify(sample)
	if err != nil {
		return len(sample), len(sample), err
	}
	for i, h := range sample {
		var want verdict
		if idx, ok := ref.Classify(h); ok {
			r := live[idx]
			want = verdict{matched: true, priority: r.Priority, action: r.Action.String(), arg: r.ActionArg}
		}
		if got[i].matched != want.matched || (want.matched && got[i] != want) {
			if failed == 0 {
				fmt.Fprintf(os.Stderr, "oracle mismatch on %v: got %+v want %+v\n", h, got[i], want)
			}
			failed++
		}
	}
	return len(sample), failed, nil
}

// heapStats is the allocator's and the collector's activity over some stretch
// of the run.
type heapStats struct {
	numGC   uint32
	pauseMs float64
	mallocs uint64 // objects allocated
	bytes   uint64 // bytes allocated
}

// heapMeter accumulates heapStats between start and stop calls.
type heapMeter struct {
	total  heapStats
	before runtime.MemStats
}

func (g *heapMeter) start() { runtime.ReadMemStats(&g.before) }

func (g *heapMeter) stop() {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	g.total.numGC += after.NumGC - g.before.NumGC
	g.total.pauseMs += float64(after.PauseTotalNs-g.before.PauseTotalNs) / 1e6
	g.total.mallocs += after.Mallocs - g.before.Mallocs
	g.total.bytes += after.TotalAlloc - g.before.TotalAlloc
}

// liveHeap returns HeapAlloc after two collections (the second frees what
// the first's finalizers and pool clearing released).
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// setups performs and times fresh builds of the system.
type setups struct {
	b     builder
	times []float64 // seconds, one per build
}

// build performs one timed set-up and returns the built system.
func (s *setups) build() (target, error) {
	t0 := time.Now()
	t, err := s.b.build()
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	s.times = append(s.times, time.Since(t0).Seconds())
	return t, nil
}

// initial builds the system minSetups times and keeps the last build for the
// rounds. heapMB is the live heap one build adds over the pre-build baseline,
// read after every build while only that build is reachable; the median of
// the readings leaves out what a pool or a finalizer happened to hold at one
// of them.
func (s *setups) initial() (t target, heapMB float64, err error) {
	baseline := liveHeap()
	var added []float64
	for i := 0; i < minSetups; i++ {
		t = nil
		if t, err = s.build(); err != nil {
			return nil, 0, err
		}
		if heap := liveHeap(); heap > baseline {
			added = append(added, float64(heap-baseline)/(1<<20))
		}
	}
	return t, median(added), nil
}

// stream is one measured kind of call (lookups or updates) over the whole
// run.
type stream struct {
	wall      fastest // per position of the sequence: wall time of the one call, ns
	cpu       fastest // per piece (group of batches, block of ops): process CPU time, ns
	pieceWork int     // headers or ops per piece
	calls     int
	work      int           // headers or ops in all measured calls
	busy      time.Duration // wall time inside all measured calls
	heap      heapMeter
}

func newStream(positions, perPiece, workPerCall int) stream {
	return stream{wall: make(fastest, positions), cpu: make(fastest, positions/perPiece), pieceWork: perPiece * workPerCall}
}

func (s *stream) timed(pos, work int, d time.Duration) {
	s.calls++
	s.work += work
	s.busy += d
	s.wall.add(pos, float64(d))
}

// rate is the work of the visited pieces per second of their summed fastest
// CPU times. A run too short to finish one piece (the smoke test) falls back
// on the whole-run figure.
func (s *stream) rate() float64 {
	total, pieces := s.cpu.sum()
	if pieces == 0 {
		return s.wholeRunRate()
	}
	return rate(pieces*s.pieceWork, time.Duration(total))
}

// wholeRunRate is all measured work per second of wall time inside the
// calls, disturbed moments included: printed for reference, never gated.
func (s *stream) wholeRunRate() float64 { return rate(s.work, s.busy) }

// p99Us is the tail latency over the positions of the sequence, in
// microseconds.
func (s *stream) p99Us() float64 { return nearestRank(s.wall.seen(), tailQuantile) / 1e3 }

// loop is the closed-loop driver: one caller, the next call issued only when
// the previous one returned.
type loop struct {
	t       target
	setups  *setups
	batches int
	group   int // lookup batches per CPU-clock reading
	mixed   bool
	next    int // next batch index, cycling over the trace; a multiple of group between groups
	churn   *churn
	oracle  *oracle

	lookups, updates stream
	blockCPU         time.Duration // CPU time of the update block in progress
	// attempted and failed count headers and ops, warm-up included.
	attempted, failed int
	// onCall, when set, is told about every timed call (traced runs record a
	// span here); nil in gated runs.
	onCall func(name string, start time.Time, d time.Duration)
}

func (l *loop) count(units int, err error) {
	l.attempted += units
	if err != nil {
		if l.failed == 0 {
			fmt.Fprintln(os.Stderr, "operation failed:", err)
		}
		l.failed += units
	}
}

// callStart reads the clock only when a span will be recorded.
func (l *loop) callStart() time.Time {
	if l.onCall == nil {
		return time.Time{}
	}
	return time.Now()
}

func (l *loop) lookupOnce() {
	s := &l.lookups
	b := l.next
	l.next = (l.next + 1) % l.batches
	start := l.callStart()
	d, err := l.t.lookup(b)
	l.count(batchSize, err)
	s.timed(b, batchSize, d)
	if l.onCall != nil {
		l.onCall("lookup", start, d)
	}
}

// updateOnce applies the next op of the churn. The call's latency is wall
// time; its cost towards the update rate is the CPU time the process spent
// meanwhile, summed per block of updateBlock ops.
func (l *loop) updateOnce() {
	s := &l.updates
	op, pos := l.churn.next()
	start := l.callStart()
	cpu := processCPU()
	d, err := l.t.update(op)
	cpu = processCPU() - cpu
	l.count(1, err)
	if err == nil {
		l.oracle.apply(op)
	}
	s.timed(pos, 1, d)
	if pos%updateBlock == 0 {
		l.blockCPU = 0
	}
	l.blockCPU += cpu
	if pos%updateBlock == updateBlock-1 {
		s.cpu.add(pos/updateBlock, float64(l.blockCPU))
	}
	if l.onCall != nil {
		l.onCall("update", start, d)
	}
}

// lookupUnit classifies whole groups of batches until a unit of wall time has
// passed. The CPU clock is read once per group, not per call, so the few tens
// of nanoseconds the driver spends between calls are in the figure and two
// system calls per 13 us batch are not. The mixed loop puts one update in
// front of every group; its CPU time goes to the update stream.
func (l *loop) lookupUnit(unit time.Duration) {
	for start := time.Now(); time.Since(start) < unit; {
		if l.mixed {
			l.updateOnce()
		}
		piece := l.next / l.group
		cpu := processCPU()
		for i := 0; i < l.group; i++ {
			l.lookupOnce()
		}
		l.lookups.cpu.add(piece, float64(processCPU()-cpu))
	}
}

// run drives the warm-up and the rounds on one locked OS thread. A
// collection is forced at every boundary so that garbage from one part is
// not collected during the next.
func (l *loop) run(p plan) error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()

	fresh := func() {
		l.lookups = newStream(l.batches, l.group, batchSize)
		l.updates = newStream(churnCycle, updateBlock, 1)
	}
	// The deletes that come before the first churn cycle, then the warm-up;
	// neither is measured.
	for _, op := range l.churn.prime() {
		_, err := l.t.update(op)
		l.count(1, err)
		if err == nil {
			l.oracle.apply(op)
		}
	}
	fresh()
	l.lookupUnit(p.unit)
	fresh()

	for r := 0; r < rounds; r++ {
		runtime.GC()
		l.lookups.heap.start()
		if l.mixed {
			l.lookupUnit(lookupUnits*p.unit + p.unit/updateShare) // the mixed loop fills the update share too
		} else {
			l.lookupUnit(lookupUnits * p.unit)
		}
		l.lookups.heap.stop()
		if !l.mixed {
			// Whole cycles only: the op that pays the rebuild allocates many
			// times what the others do, and a count per op over a cycle and a
			// half would depend on which half.
			runtime.GC()
			l.updates.heap.start()
			for start := time.Now(); time.Since(start) < p.unit/updateShare; {
				for i := 0; i < churnCycle; i++ {
					l.updateOnce()
				}
			}
			l.updates.heap.stop()
		}
		// Fresh set-ups; the systems they build are dropped.
		for start := time.Now(); time.Since(start) < p.unit/setupShare; {
			if _, err := l.setups.build(); err != nil {
				return err
			}
		}
	}
	if l.mixed {
		l.updates.heap = l.lookups.heap
	}
	return nil
}

// endToEnd is everything a gated run reports.
type endToEnd struct {
	metrics   map[string]float64
	attempted int
	failed    int
	// The streams carry the supporting detail of the run header and the two
	// reported-only update timings (updates.rate, updates.p99Us): the
	// allocation counts gate the update path, and the time a steadier update
	// timing would need went to the lookups (NOISE.md).
	setups           int
	lookups, updates stream
}

// runEndToEnd measures the end-to-end metrics of one workload: initial
// set-ups, oracle check, warm-up, the rounds, oracle check. onCall is nil
// except in traced runs.
func runEndToEnd(w workload, in inputs, seed int64, p plan, onCall func(string, time.Time, time.Duration)) (endToEnd, target, error) {
	var out endToEnd
	b, err := newBuilder(w, in)
	if err != nil {
		return out, nil, err
	}
	su := &setups{b: b}
	t, heapMB, err := su.initial()
	if err != nil {
		return out, nil, err
	}
	l := &loop{
		t: t, setups: su, batches: len(in.batches), group: w.groupBatches, mixed: w.mixed,
		churn: newChurn(in.rules, seed), oracle: newOracle(in.rules), onCall: onCall,
	}

	verify := func() {
		attempted, failed, err := l.oracle.verify(l.t, in.sample)
		out.attempted += attempted
		out.failed += failed
		if err != nil {
			fmt.Fprintln(os.Stderr, "verification failed:", err)
		}
	}
	verify()
	if err := l.run(p); err != nil {
		return out, nil, err
	}
	verify()
	out.attempted += l.attempted
	out.failed += l.failed

	ops := float64(max(1, l.updates.calls))
	out.metrics = map[string]float64{
		"setup_s":         slices.Min(su.times),
		"lookups_per_s":   l.lookups.rate(),
		"batch_p99_us":    l.lookups.p99Us(),
		"update_alloc_kb": float64(l.updates.heap.total.bytes) / 1024 / ops,
		"update_allocs":   float64(l.updates.heap.total.mallocs) / ops,
		"heap_mb":         heapMB,
	}
	out.setups = len(su.times)
	out.lookups, out.updates = l.lookups, l.updates
	return out, l.t, nil
}
