package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"sdnpc/internal/cache"
	"sdnpc/internal/fivetuple"
)

// lanes is the serving layer in front of the published snapshot: one lane
// per processor the runtime schedules on (GOMAXPROCS when the classifier is
// built), each a private microflow cache plus private lookup counters. A
// lookup performs no writes to the snapshot, so every lane serves the one
// published snapshot; what the lanes buy is that workers on different cores
// fill and hit their own cache and bump their own counters instead of
// contending on shared ones.
type lanes struct {
	all []*lane

	// next round-robins lane indices onto pool slots as Ps first touch the
	// pool, spreading workers across lanes.
	next atomic.Uint64

	// slots hands each goroutine a lane index with per-P locality: sync.Pool
	// keeps returned slots in a per-P cache, so a worker pinned to a core
	// keeps drawing the same lane index with no shared contended counter and
	// no steady-state allocation.
	slots sync.Pool
}

// lane is one worker-facing slice of the serving state: a private cache (nil
// when Config.CacheCapacity is 0; generation matching keeps it coherent
// through snapshot swaps) and private lookup counters. Each lane is its own
// heap allocation, and the pads keep its cache pointer and its counters off
// any cache line shared with another lane's.
type lane struct {
	_         [64]byte
	microflow *cache.Cache[Result]
	_         [64]byte
	stats     laneStats
	_         [64]byte
}

// laneStats is the lookup side of Stats, owned by one lane: a worker pinned
// to a lane increments only its own lane's counters, so the serving path
// never writes a cache line another core's counters share.
// Batches are folded in with one atomic add per counter rather than one per
// packet. The update-plane counters live in the classifier's statsCollector
// — updates are single-writer and don't need this.
type laneStats struct {
	lookups       atomic.Uint64
	matches       atomic.Uint64
	fieldAccesses atomic.Uint64
	labelFetches  atomic.Uint64
	filterProbes  atomic.Uint64
	combinations  atomic.Uint64
}

func (st *laneStats) recordLookup(r Result) { st.recordBatch(SummarizeBatch([]Result{r})) }

func (st *laneStats) recordBatch(rep BatchReport) {
	st.lookups.Add(uint64(rep.Packets))
	st.matches.Add(uint64(rep.Matched))
	st.fieldAccesses.Add(uint64(rep.FieldAccesses))
	st.labelFetches.Add(uint64(rep.LabelFetches))
	st.filterProbes.Add(uint64(rep.RuleFilterProbes))
	st.combinations.Add(uint64(rep.Combinations))
}

// addTo folds this lane's counters into an aggregate Stats snapshot.
func (st *laneStats) addTo(s *Stats) {
	s.Lookups += st.lookups.Load()
	s.Matches += st.matches.Load()
	s.FieldAccesses += st.fieldAccesses.Load()
	s.LabelFetches += st.labelFetches.Load()
	s.RuleFilterProbes += st.filterProbes.Load()
	s.Combinations += st.combinations.Load()
}

func (st *laneStats) reset() {
	st.lookups.Store(0)
	st.matches.Store(0)
	st.fieldAccesses.Store(0)
	st.labelFetches.Store(0)
	st.filterProbes.Store(0)
	st.combinations.Store(0)
}

// laneSlot is the pooled token carrying a lane index.
type laneSlot struct{ idx int }

// newLanes builds one lane per processor the runtime schedules on, read once
// here. Config.CacheCapacity is the classifier's total entry budget: it is
// split evenly across the lanes, so the cache memory a configuration asks for
// is the same on any core count.
func newLanes(cfg *Config) *lanes {
	ls := &lanes{all: make([]*lane, runtime.GOMAXPROCS(0))}
	perLane := (cfg.CacheCapacity + len(ls.all) - 1) / len(ls.all)
	for i := range ls.all {
		ln := &lane{}
		if perLane > 0 {
			ln.microflow = cache.New[Result](cfg.CacheShards, perLane)
		}
		ls.all[i] = ln
	}
	ls.slots.New = func() any {
		return &laneSlot{idx: int(ls.next.Add(1)-1) % len(ls.all)}
	}
	return ls
}

// pick draws a lane for the calling goroutine and returns the Reader to
// serve through together with the pool slot to return via release. A single
// lane has nothing to spread and skips the pool; otherwise the draw is
// allocation-free in steady state.
func (c *Classifier) pick() (Reader, *laneSlot) {
	ls := c.lanes
	if len(ls.all) == 1 {
		return Reader{c: c, lane: ls.all[0]}, nil
	}
	sl := ls.slots.Get().(*laneSlot)
	return Reader{c: c, lane: ls.all[sl.idx]}, sl
}

func (ls *lanes) release(sl *laneSlot) {
	if sl != nil {
		ls.slots.Put(sl)
	}
}

// lane returns the lane a pinned worker id maps to. The unsigned conversion
// makes every int a valid id, negative ones included.
func (ls *lanes) lane(worker int) *lane {
	return ls.all[uint(worker)%uint(len(ls.all))]
}

// Reader is a worker-pinned serving handle: lookups through a Reader always
// go through the same lane's cache and counters, so a serving loop pinned to
// a core contends with no other worker on either. It is also the one
// implementation of every lookup call shape — the Classifier's own lookup
// methods draw a lane for the calling goroutine and run the same bodies.
// Callers can hold one Reader per worker unconditionally: worker ids beyond
// the lane count wrap around.
type Reader struct {
	c    *Classifier
	lane *lane
}

// Reader returns the serving handle for the given worker id. Worker ids are
// mapped onto lanes round-robin; any id is valid.
func (c *Classifier) Reader(worker int) *Reader {
	return &Reader{c: c, lane: c.lanes.lane(worker)}
}

// Lookup classifies one header against the published snapshot, through this
// reader's lane cache when one is configured. Accounting goes to the lane's
// private counters.
func (r *Reader) Lookup(h fivetuple.Header) Result {
	result := r.c.serveOn(r.c.view(), r.lane.microflow, h)
	r.lane.stats.recordLookup(result)
	return result
}

// LookupBatchInto classifies a batch against one consistent snapshot: the
// published data path is loaded once and every header of the batch is
// classified against it, even if rule updates land midway. dst's backing
// array is reused when its capacity covers the batch (grown otherwise) and
// returned resized to one Result per header.
func (r *Reader) LookupBatchInto(dst []Result, hs []fivetuple.Header) []Result {
	if len(hs) == 0 {
		return dst[:0]
	}
	if cap(dst) < len(hs) {
		dst = make([]Result, len(hs))
	}
	dst = dst[:len(hs)]
	s := r.c.view()
	for i, h := range hs {
		dst[i] = r.c.serveOn(s, r.lane.microflow, h)
	}
	r.lane.stats.recordBatch(SummarizeBatch(dst))
	return dst
}

// LookupBatch classifies a batch against one consistent snapshot.
func (r *Reader) LookupBatch(hs []fivetuple.Header) []Result {
	return r.LookupBatchInto(nil, hs)
}

// Generation returns the generation of the published snapshot this reader's
// next lookup will serve.
func (r *Reader) Generation() uint64 { return r.c.view().gen }
