// Package cache implements the sharded exact-match microflow cache that sits
// in front of both classification engine tiers.
//
// Real SDN data planes short-circuit repeated five-tuples before any
// classification structure is walked — the microflow/megaflow split
// popularised by Open vSwitch. This package provides that front: a
// power-of-two sharded, set-associative table keyed by the exact packet
// five-tuple, with a per-shard seeded hash, fixed-capacity buckets evicted by
// a cheap per-bucket CLOCK sweep and atomic hit/miss/eviction counters.
//
// Coherence under concurrent rule churn comes from generations, not flushes.
// Every entry records the generation of the classifier snapshot whose lookup
// produced it, and Get only returns an entry whose generation equals the
// generation the caller is serving from. A clone-mutate-swap that publishes a
// new snapshot therefore invalidates the whole cache in O(1) — the new
// generation simply never matches old entries — without a stop-the-world
// flush and without writers ever touching the cache. Readers still holding
// the superseded snapshot keep hitting entries of that generation, which is
// exactly the old-or-new consistency the snapshot-swap serving path
// guarantees.
//
// The cache is value-generic so it stores the serving path's Result type
// without importing it (core depends on cache, not the reverse).
package cache

import (
	"sync"
	"sync/atomic"
	"unsafe"

	"sdnpc/internal/fivetuple"
)

// ways is the bucket associativity: a full bucket evicts among this many
// candidate slots. Four ways keeps the CLOCK sweep inside one cache line's
// worth of metadata while tolerating modest hash skew.
const ways = 4

// shardSelectSeed seeds the hash that distributes headers across shards; the
// per-shard bucket hashes use seeds derived per shard so that a pathological
// five-tuple set cannot collide in every shard at once.
const shardSelectSeed = 0x9e3779b97f4a7c15

// entry is one cached five-tuple verdict.
type entry[V any] struct {
	key  fivetuple.Header
	gen  uint64
	val  V
	live bool
	// ref is the CLOCK reference bit: set on every hit, cleared as the
	// eviction hand sweeps past.
	ref bool
}

// shard is one independently locked slice of the cache.
type shard[V any] struct {
	mu   sync.Mutex
	seed uint64
	// entries holds bucketCount*ways slots; bucket b occupies
	// entries[b*ways : (b+1)*ways].
	entries []entry[V]
	// hands holds the per-bucket CLOCK hand.
	hands      []uint8
	bucketMask uint64
}

// Stats is a snapshot of the cache's atomic counters.
type Stats struct {
	// Hits is the number of lookups answered from the cache.
	Hits uint64
	// Misses is the number of lookups that fell through to the engines
	// (including stale-generation drops).
	Misses uint64
	// Evictions counts live entries displaced by the CLOCK sweep.
	Evictions uint64
	// StaleGenerations counts entries found for the right five-tuple but a
	// superseded snapshot generation; each was dropped and recounted as a
	// miss, never served.
	StaleGenerations uint64
}

// HitRate returns the fraction of lookups answered from the cache.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Cache is a sharded exact-match microflow cache. All methods are safe for
// concurrent use; Get and Put on different shards never contend.
type Cache[V any] struct {
	shards    []shard[V]
	shardMask uint64

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
	stale     atomic.Uint64
}

// New builds a cache with the given shard count and total entry capacity.
// Both are rounded up: shards to a power of two (minimum 1; values <= 0
// select 8), capacity so every shard holds at least one ways-wide bucket and
// a power-of-two bucket count. Capacity() reports the resulting provisioned
// size.
func New[V any](shards, capacity int) *Cache[V] {
	if shards <= 0 {
		shards = 8
	}
	shards = nextPowerOfTwo(shards)
	if capacity < shards*ways {
		capacity = shards * ways
	}
	perShard := (capacity + shards - 1) / shards
	buckets := nextPowerOfTwo((perShard + ways - 1) / ways)

	c := &Cache[V]{
		shards:    make([]shard[V], shards),
		shardMask: uint64(shards - 1),
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.seed = mix(shardSelectSeed + uint64(i)*0xbf58476d1ce4e5b9)
		s.entries = make([]entry[V], buckets*ways)
		s.hands = make([]uint8, buckets)
		s.bucketMask = uint64(buckets - 1)
	}
	return c
}

// Shards returns the (power-of-two) shard count.
func (c *Cache[V]) Shards() int { return len(c.shards) }

// Capacity returns the total number of provisioned entry slots.
func (c *Cache[V]) Capacity() int { return len(c.shards) * len(c.shards[0].entries) }

// FootprintBits reports the provisioned software footprint of the cache in
// bits: every entry slot at its in-memory struct size plus the per-bucket
// CLOCK hands. This is the honest number MemoryReport places beside the
// engine bits — provisioned, not merely occupied, because the slots are
// allocated up front.
func (c *Cache[V]) FootprintBits() int {
	var e entry[V]
	entryBytes := int(unsafe.Sizeof(e))
	total := 0
	for i := range c.shards {
		total += len(c.shards[i].entries)*entryBytes + len(c.shards[i].hands)
	}
	return total * 8
}

// Get returns the cached value for the header if it was filled under the
// same snapshot generation. An entry of an *older* generation belongs to a
// superseded snapshot: it is dropped (freeing the slot for the refill) and
// counted as a stale-generation miss, so a post-swap lookup can never be
// served a pre-swap verdict. An entry of a *newer* generation means the
// caller itself is still draining a superseded snapshot; the entry is left
// in place — evicting the fresh verdict on behalf of a reader that is about
// to finish would make hot entries ping-pong between generations for the
// whole drain.
func (c *Cache[V]) Get(gen uint64, h fivetuple.Header) (V, bool) {
	var zero V
	s := c.shardFor(h)
	base := s.bucketBase(h)
	s.mu.Lock()
	for i := 0; i < ways; i++ {
		e := &s.entries[base+i]
		if !e.live || e.key != h {
			continue
		}
		if e.gen == gen {
			e.ref = true
			val := e.val
			s.mu.Unlock()
			c.hits.Add(1)
			return val, true
		}
		if e.gen < gen {
			e.live = false
			e.val = zero
			s.mu.Unlock()
			c.stale.Add(1)
			c.misses.Add(1)
			return zero, false
		}
		break
	}
	s.mu.Unlock()
	c.misses.Add(1)
	return zero, false
}

// Put stores the value computed for the header under the given snapshot
// generation, reusing the header's existing slot when present and otherwise
// filling a free slot or evicting inside the bucket with one CLOCK sweep.
func (c *Cache[V]) Put(gen uint64, h fivetuple.Header, v V) {
	s := c.shardFor(h)
	base := s.bucketBase(h)
	bucket := base / ways
	s.mu.Lock()
	free := -1
	for i := 0; i < ways; i++ {
		e := &s.entries[base+i]
		if e.live && e.key == h {
			if e.gen > gen {
				// A newer snapshot's verdict is already cached; a reader
				// still draining an older snapshot must not clobber it.
				s.mu.Unlock()
				return
			}
			e.gen, e.val, e.ref = gen, v, true
			s.mu.Unlock()
			return
		}
		if !e.live && free < 0 {
			free = i
		}
	}
	if free < 0 {
		// CLOCK: sweep the bucket from the hand, clearing reference bits
		// until an unreferenced victim is found. Bounded: after one full
		// sweep every bit is clear.
		hand := int(s.hands[bucket])
		for s.entries[base+hand].ref {
			s.entries[base+hand].ref = false
			hand = (hand + 1) % ways
		}
		free = hand
		s.hands[bucket] = uint8((hand + 1) % ways)
		c.evictions.Add(1)
	}
	s.entries[base+free] = entry[V]{key: h, gen: gen, val: v, live: true, ref: true}
	s.mu.Unlock()
}

// Stats returns a snapshot of the counters. Counters are read individually
// and atomically; the struct is not one consistent cut, which is inherent to
// concurrent collection.
func (c *Cache[V]) Stats() Stats {
	return Stats{
		Hits:             c.hits.Load(),
		Misses:           c.misses.Load(),
		Evictions:        c.evictions.Load(),
		StaleGenerations: c.stale.Load(),
	}
}

// ResetStats zeroes the counters without touching cached entries.
func (c *Cache[V]) ResetStats() {
	c.hits.Store(0)
	c.misses.Store(0)
	c.evictions.Store(0)
	c.stale.Store(0)
}

// shardFor selects the header's shard with the global shard-select hash.
func (c *Cache[V]) shardFor(h fivetuple.Header) *shard[V] {
	return &c.shards[hashHeader(h, shardSelectSeed)&c.shardMask]
}

// bucketBase returns the index of the first slot of the header's bucket,
// using this shard's private seed.
func (s *shard[V]) bucketBase(h fivetuple.Header) int {
	return int(hashHeader(h, s.seed)&s.bucketMask) * ways
}

// hashHeader hashes the full header with the given seed: every dimension —
// the 104 five-tuple bits, the family/VLAN/TCP-flag metadata word and the two
// 128-bit IPv6 addresses — is packed into words and chained through the
// splitmix64 finaliser, which is cheap and mixes every input bit into every
// output bit.
//
// Folding EVERY Header field in is a correctness requirement, not a quality
// tweak: the cache buckets by this hash and then compares keys with struct
// equality, so a missed field merely degrades bucketing — but it once hashed
// only the five-tuple, making two headers differing solely in an IPv6 address
// or VLAN tag collide pathologically. TestHashHeaderCoversEveryField walks the struct
// by reflection and fails when a newly added field is not mixed in here.
func hashHeader(h fivetuple.Header, seed uint64) uint64 {
	a := uint64(h.SrcIP)<<32 | uint64(h.DstIP)
	b := uint64(h.SrcPort)<<24 | uint64(h.DstPort)<<8 | uint64(h.Protocol)
	m := uint64(h.Family)<<24 | uint64(h.VLAN)<<8 | uint64(h.TCPFlags)
	x := mix(b ^ seed)
	x = mix(a ^ x)
	x = mix(m ^ x)
	x = mix(h.SrcIP6.Hi ^ x)
	x = mix(h.SrcIP6.Lo ^ x)
	x = mix(h.DstIP6.Hi ^ x)
	return mix(h.DstIP6.Lo ^ x)
}

// mix is the splitmix64 finaliser.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// nextPowerOfTwo rounds n up to the next power of two (minimum 1).
func nextPowerOfTwo(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}
