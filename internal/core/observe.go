package core

import "sdnpc/internal/cache"

// Report is the one-call observability snapshot of a classifier: data-plane
// counters, served-request summary, update-plane counters, cache counters and
// the memory breakdown, assembled against a single published snapshot, so the
// engine names, rule counts, memory breakdown and update-plane view are
// mutually consistent even when updates race the read. (The atomic counters
// inside Stats, Lookups and Updates remain individually atomic reads, which
// is inherent to concurrent collection.)
type Report struct {
	// ActiveEngine is the registry name of the engine answering lookups;
	// IPEngine and PacketEngine name the programmed engine of each tier
	// (PacketEngine is "" when the field tier serves).
	ActiveEngine string
	IPEngine     string
	PacketEngine string

	// RulesInstalled and RuleCapacity describe the rule table under the
	// current engine selection.
	RulesInstalled int
	RuleCapacity   int

	// Lookups is the cheap served-request summary (lookups answered,
	// matches returned); Stats is the full data-plane counter snapshot.
	Lookups LookupCounters
	Stats   Stats

	// Updates is the update-plane view: delta-vs-rebuild publish counters,
	// current delta debt and the publish-latency histogram.
	Updates UpdateStats

	// Memory is the block-memory breakdown of §III.D.
	Memory MemoryReport

	// CacheEnabled reports whether the microflow cache is configured; Cache
	// holds its counters (zero when disabled), summed over every replica's
	// private cache so the aggregate hit rate stays meaningful.
	CacheEnabled bool
	Cache        cache.Stats

	// Generation is the published snapshot's generation — the one every
	// replica serves.
	Generation uint64

	// Replicas describes each serving replica, in replica order; empty when
	// replication is off (Config.Replicas <= 1).
	Replicas []ReplicaReport

	// Shards describes each rule-space shard, in shard order; empty when
	// partitioning is off.
	Shards []ShardReport
}

// ReplicaReport is the per-replica slice of the observability snapshot.
type ReplicaReport struct {
	// CacheEnabled reports whether the replica holds a private microflow
	// cache; Cache holds its counters.
	CacheEnabled bool
	Cache        cache.Stats
}

// ShardReport is the per-shard slice of the observability snapshot — the
// numbers that show the paper's memory/accesses trade-off applying per
// shard: each shard holds only its rule slice, so its structures are
// super-linearly smaller than the unsharded table's.
type ShardReport struct {
	// Rules is the number of rules installed in this shard (spanning rules
	// count once per shard they replicate into).
	Rules int
	// IPEngineUsedBits is the node storage of the shard's four IP-segment
	// engines; PacketEngineUsedBits that of its whole-packet structure (0
	// when the field tier serves).
	IPEngineUsedBits     int
	PacketEngineUsedBits int
}

// Report assembles the full observability snapshot. It loads the published
// snapshot once, so the structural fields (engine names, rule counts, memory
// breakdown, delta debt) are one consistent cut even while updates are in
// flight. It is safe to call from any goroutine.
func (c *Classifier) Report() Report {
	s := c.view()
	r := Report{
		ActiveEngine:   s.activeEngineName(),
		IPEngine:       s.engineName,
		PacketEngine:   s.packetName,
		RulesInstalled: len(s.installed),
		RuleCapacity:   c.cfg.RuleCapacityFor(s.activeEngineName()),
		Stats:          c.statsSnapshot(),
		Updates:        c.updateStats(s),
		Memory:         c.memoryReport(s),
	}
	r.Lookups = LookupCounters{Lookups: r.Stats.Lookups, Matches: r.Stats.Matches}
	r.CacheEnabled = c.CacheEnabled()
	r.Generation = s.gen
	for _, rep := range c.fleet.replicas {
		rr := ReplicaReport{CacheEnabled: r.CacheEnabled}
		if rep.microflow != nil {
			rr.Cache = rep.microflow.Stats()
			r.Cache.Hits += rr.Cache.Hits
			r.Cache.Misses += rr.Cache.Misses
			r.Cache.Evictions += rr.Cache.Evictions
			r.Cache.StaleGenerations += rr.Cache.StaleGenerations
		}
		if c.cfg.Replicas > 1 {
			r.Replicas = append(r.Replicas, rr)
		}
	}
	for _, sh := range s.shards {
		sr := ShardReport{Rules: len(sh.installed)}
		for _, d := range ipSegmentDims {
			sr.IPEngineUsedBits += sh.engines[d].Footprint().NodeBits
		}
		if sh.packet != nil {
			sr.PacketEngineUsedBits = sh.packet.Footprint().NodeBits
		}
		r.Shards = append(r.Shards, sr)
	}
	return r
}
