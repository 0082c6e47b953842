package core

import (
	"sync"
	"sync/atomic"

	"sdnpc/internal/cache"
	"sdnpc/internal/fivetuple"
)

// fleet is the serving layer in front of the published snapshot: one or more
// replicas (Config.Replicas; the plain classifier is a fleet of one), each a
// private microflow cache plus private lookup counters. A lookup performs no
// writes to the snapshot, so every replica serves the one published snapshot;
// what replicating buys is that workers on different cores fill and hit
// their own cache and bump their own counters instead of contending on
// shared ones.
type fleet struct {
	replicas []*fleetReplica

	// next round-robins replica indices onto pool slots as Ps first touch
	// the pool, spreading workers across replicas.
	next atomic.Uint64

	// slots hands each goroutine a replica index with per-P locality:
	// sync.Pool keeps returned slots in a per-P cache, so a worker pinned to
	// a core keeps drawing the same replica index with no shared contended
	// counter and no steady-state allocation.
	slots sync.Pool
}

// fleetReplica is one worker-facing slice of the serving state: a private
// cache (nil when Config.CacheCapacity is 0; generation matching keeps it
// coherent through snapshot swaps) and private lookup counters. Each replica
// is its own heap allocation, and the pads keep its cache pointer and its
// counters off any cache line shared with another replica's.
type fleetReplica struct {
	_         [64]byte
	microflow *cache.Cache[Result]
	_         [64]byte
	stats     replicaStats
	_         [64]byte
}

// replicaStats is the lookup side of Stats, owned by one replica: a worker
// pinned to a replica increments only its own replica's counters, so the
// serving path never writes a cache line another core's counters share.
// Batches are folded in with one atomic add per counter rather than one per
// packet. The update-plane counters live in the classifier's statsCollector
// — updates are single-writer and don't need this.
type replicaStats struct {
	lookups          atomic.Uint64
	matches          atomic.Uint64
	fieldAccesses    atomic.Uint64
	labelFetches     atomic.Uint64
	ruleFilterProbes atomic.Uint64
	combinations     atomic.Uint64
	latencyCycles    atomic.Uint64
}

func (rs *replicaStats) recordLookup(r Result) {
	rs.lookups.Add(1)
	if r.Matched {
		rs.matches.Add(1)
	}
	rs.fieldAccesses.Add(uint64(r.FieldAccesses))
	rs.labelFetches.Add(uint64(r.LabelFetches))
	rs.ruleFilterProbes.Add(uint64(r.RuleFilterProbes))
	rs.combinations.Add(uint64(r.Combinations))
	rs.latencyCycles.Add(uint64(r.LatencyCycles))
}

func (rs *replicaStats) recordBatch(rep BatchReport) {
	rs.lookups.Add(uint64(rep.Packets))
	rs.matches.Add(uint64(rep.Matched))
	rs.fieldAccesses.Add(uint64(rep.FieldAccesses))
	rs.labelFetches.Add(uint64(rep.LabelFetches))
	rs.ruleFilterProbes.Add(uint64(rep.RuleFilterProbes))
	rs.combinations.Add(uint64(rep.Combinations))
	rs.latencyCycles.Add(uint64(rep.LatencyCycles))
}

// addTo folds this replica's counters into an aggregate Stats snapshot.
func (rs *replicaStats) addTo(s *Stats) {
	s.Lookups += rs.lookups.Load()
	s.Matches += rs.matches.Load()
	s.FieldAccesses += rs.fieldAccesses.Load()
	s.LabelFetches += rs.labelFetches.Load()
	s.RuleFilterProbes += rs.ruleFilterProbes.Load()
	s.Combinations += rs.combinations.Load()
	s.LatencyCycles += rs.latencyCycles.Load()
}

func (rs *replicaStats) reset() {
	rs.lookups.Store(0)
	rs.matches.Store(0)
	rs.fieldAccesses.Store(0)
	rs.labelFetches.Store(0)
	rs.ruleFilterProbes.Store(0)
	rs.combinations.Store(0)
	rs.latencyCycles.Store(0)
}

// replicaSlot is the pooled token carrying a replica index.
type replicaSlot struct{ idx int }

// newFleet builds the replica array: Config.Replicas of them, one when the
// configuration leaves replication off. Each replica gets its own private
// microflow cache when the configuration enables one.
func newFleet(cfg *Config) *fleet {
	f := &fleet{replicas: make([]*fleetReplica, max(cfg.Replicas, 1))}
	for i := range f.replicas {
		rep := &fleetReplica{}
		if cfg.CacheCapacity > 0 {
			rep.microflow = cache.New[Result](cfg.CacheShards, cfg.CacheCapacity)
		}
		f.replicas[i] = rep
	}
	f.slots.New = func() any {
		return &replicaSlot{idx: int(f.next.Add(1)-1) % len(f.replicas)}
	}
	return f
}

// pick draws a replica for the calling goroutine and returns the Reader to
// serve through together with the pool slot to return via release. A fleet
// of one has nothing to spread and skips the pool; otherwise the draw is
// allocation-free in steady state.
func (c *Classifier) pick() (Reader, *replicaSlot) {
	f := c.fleet
	if len(f.replicas) == 1 {
		return Reader{c: c, rep: f.replicas[0]}, nil
	}
	sl := f.slots.Get().(*replicaSlot)
	return Reader{c: c, rep: f.replicas[sl.idx]}, sl
}

func (f *fleet) release(sl *replicaSlot) {
	if sl != nil {
		f.slots.Put(sl)
	}
}

// replica returns the replica a pinned worker id maps to. The unsigned
// conversion makes every int a valid id, negative ones included.
func (f *fleet) replica(worker int) *fleetReplica {
	return f.replicas[uint(worker)%uint(len(f.replicas))]
}

// Reader is a worker-pinned serving handle: lookups through a Reader always
// go through the same replica's cache and counters, so a serving loop pinned
// to a core contends with no other worker on either. It is also the one
// implementation of every lookup call shape — the Classifier's own lookup
// methods draw a replica for the calling goroutine and run the same bodies.
// Callers can hold one Reader per worker unconditionally: on an unreplicated
// classifier every worker id maps to the single replica.
type Reader struct {
	c   *Classifier
	rep *fleetReplica
}

// Reader returns the serving handle for the given worker id. Worker ids are
// mapped onto replicas round-robin; any id is valid.
func (c *Classifier) Reader(worker int) *Reader {
	return &Reader{c: c, rep: c.fleet.replica(worker)}
}

// Lookup classifies one header against the published snapshot, through this
// reader's replica cache when one is configured. Accounting goes to the
// replica's private counters.
func (r *Reader) Lookup(h fivetuple.Header) Result {
	result := r.c.serveOn(r.c.view(), r.rep.microflow, h)
	r.rep.stats.recordLookup(result)
	r.c.sampler.offer(h)
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
		dst[i] = r.c.serveOn(s, r.rep.microflow, h)
	}
	r.rep.stats.recordBatch(SummarizeBatch(dst))
	r.c.sampler.offer(hs[0])
	return dst
}

// LookupBatch classifies a batch against one consistent snapshot.
func (r *Reader) LookupBatch(hs []fivetuple.Header) []Result {
	return r.LookupBatchInto(nil, hs)
}

// Generation returns the generation of the published snapshot this reader's
// next lookup will serve.
func (r *Reader) Generation() uint64 { return r.c.view().gen }
