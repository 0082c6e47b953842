package core

import (
	"math/bits"
	"time"

	"sdnpc/internal/engine"
)

// publishLatencyBuckets is the bucket count of the publish-latency
// histogram: power-of-two nanosecond buckets up to ~2.1 s, which covers
// everything from a sub-microsecond delta publish to a pathological rebuild.
const publishLatencyBuckets = 32

// LatencyHistogram is a fixed-bucket wall-clock latency histogram:
// Counts[i] tallies observations in [2^i, 2^(i+1)) nanoseconds, with the
// first and last buckets absorbing the tails.
type LatencyHistogram struct {
	Counts [publishLatencyBuckets]uint64
}

// latencyBucket maps a duration to its histogram bucket.
func latencyBucket(d time.Duration) int {
	ns := d.Nanoseconds()
	if ns < 1 {
		ns = 1
	}
	b := bits.Len64(uint64(ns)) - 1
	if b >= publishLatencyBuckets {
		b = publishLatencyBuckets - 1
	}
	return b
}

// Total returns the number of recorded observations.
func (h LatencyHistogram) Total() uint64 {
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	return total
}

// Quantile returns an upper bound on the q-quantile latency (q in [0,1]):
// the upper edge of the bucket holding the q-th observation. Zero when the
// histogram is empty.
func (h LatencyHistogram) Quantile(q float64) time.Duration {
	total := h.Total()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(total-1))
	var seen uint64
	for i, c := range h.Counts {
		seen += c
		if c > 0 && seen > rank {
			return time.Duration(uint64(1) << (i + 1))
		}
	}
	return time.Duration(uint64(1) << publishLatencyBuckets)
}

// P50 returns the median publish latency bucket bound.
func (h LatencyHistogram) P50() time.Duration { return h.Quantile(0.50) }

// P99 returns the 99th-percentile publish latency bucket bound.
func (h LatencyHistogram) P99() time.Duration { return h.Quantile(0.99) }

// UpdateStats describes the write side of the classifier — how each
// rule-update publish brought the engine in step with the rule table: by
// delta ops applied at each op (every publish under the field engine, which
// never asks for a rebuild), or by a full rebuild.
type UpdateStats struct {
	// DeltasApplied is the total number of rule mutations applied through
	// the engine's delta ops.
	DeltasApplied uint64
	// DeltaPublishes is the number of publishes served entirely by deltas.
	DeltaPublishes uint64
	// Rebuilds is the number of publishes that rebuilt the engine in full —
	// because the engine is not incremental, the delta debt reached
	// DefaultRebuildAfterDeltas, the degradation reached
	// DefaultDegradationThreshold, or the engine declined a delta.
	Rebuilds uint64
	// DeltasSinceRebuild and Degradation are the published engine's own
	// UpdateCost: how many delta ops it has absorbed since its last full
	// build, which stays below DefaultRebuildAfterDeltas, and its drift from
	// a fresh build in [0,1] (stale DCFL combination entries, overfull
	// HyperCuts leaves). Both read 0 right after a rebuild, for engines
	// without delta support and for the field engine.
	DeltasSinceRebuild int
	Degradation        float64
	// PublishLatency is the wall-clock latency histogram of rule-update
	// publishes (clone + mutate + rebuild, if any + swap).
	PublishLatency LatencyHistogram
}

// updateStats reads the update-plane counters against one snapshot, for
// Report. The individual counters are read atomically; the struct as a whole
// is not one consistent cut.
func (c *Classifier) updateStats(s *snapshot) UpdateStats {
	stats := UpdateStats{
		DeltasApplied:  c.stats.deltasApplied.Load(),
		DeltaPublishes: c.stats.deltaPublishes.Load(),
		Rebuilds:       c.stats.rebuilds.Load(),
	}
	if inc, ok := s.engine.(engine.IncrementalPacketEngine); ok {
		cost := inc.UpdateCost()
		stats.DeltasSinceRebuild, stats.Degradation = cost.Deltas, cost.Degradation
	}
	for i := range stats.PublishLatency.Counts {
		stats.PublishLatency.Counts[i] = c.stats.publishLatency[i].Load()
	}
	return stats
}
