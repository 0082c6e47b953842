// Package advisor is the read-only engine report: it turns the signals a
// running Classifier already exposes (cache hit rate, publish latency,
// delta debt, memory bits) plus a shadow bench of candidate engines on a
// caller-supplied trace into ranked Recommendations.
//
// The flow is signal → shadow-bench → recommend:
//
//  1. analyze reads one Classifier.Report() and derives the workload's
//     pressure profile — how much raw engine speed matters versus memory
//     footprint (a hot cache absorbs repeated flows, so the engine behind
//     it should be chosen for leanness; a cold cache puts every packet on
//     the engine, so speed dominates) — along with decision-table
//     recommendations for the update policy and the cache.
//  2. shadowBench replays the trace (or, when the caller has none, a
//     synthetic trace derived from the installed rules) against a fresh
//     classifier per candidate engine, under a bounded CPU budget.
//  3. rankEngines scores every candidate by the profile-weighted blend of
//     measured speed and memory, and recommends a switch only when it beats
//     the active engine by a clear margin. It ranks lookup speed and memory
//     only — never update cost.
//
// Advise changes nothing. Whoever reads the report acts on it: an engine
// recommendation through SelectEngine, update-policy bounds and cache
// geometry at construction.
package advisor

import (
	"fmt"
	"sort"
	"time"

	"sdnpc/internal/core"
	"sdnpc/internal/engine"
	"sdnpc/internal/fivetuple"
)

// Kind classifies what a Recommendation asks to change.
type Kind string

// Recommendation kinds.
const (
	// KindEngine recommends switching the serving engine (either tier)
	// through SelectEngine.
	KindEngine Kind = "engine"
	// KindUpdatePolicy recommends new delta-vs-rebuild policy bounds
	// (Config.RebuildAfterDeltas / DegradationThreshold, fixed at
	// construction).
	KindUpdatePolicy Kind = "update-policy"
	// KindCache flags a cache configuration mismatch (cache geometry is
	// fixed at construction).
	KindCache Kind = "cache"
)

// Recommendation is one ranked, self-describing tuning suggestion.
type Recommendation struct {
	// Kind selects which fields below are meaningful.
	Kind Kind `json:"kind"`
	// Engine is the target engine of a KindEngine recommendation.
	Engine string `json:"engine,omitempty"`
	// RebuildAfterDeltas and DegradationThreshold are the suggested policy
	// bounds of a KindUpdatePolicy recommendation (Config conventions:
	// 0 = default).
	RebuildAfterDeltas   int     `json:"rebuild_after_deltas,omitempty"`
	DegradationThreshold float64 `json:"degradation_threshold,omitempty"`
	// Reason explains the signal that produced the recommendation.
	Reason string `json:"reason"`
	// Score orders recommendations (higher = stronger). For KindEngine it
	// is the relative score improvement over the active engine.
	Score float64 `json:"score"`
	// NsPerLookup and MemoryBits carry the shadow-bench measurements behind
	// a KindEngine recommendation.
	NsPerLookup float64 `json:"ns_per_lookup,omitempty"`
	MemoryBits  int     `json:"memory_bits,omitempty"`
}

// String renders the recommendation for logs.
func (r Recommendation) String() string {
	switch r.Kind {
	case KindEngine:
		return fmt.Sprintf("engine → %s (score %+.0f%%): %s", r.Engine, 100*r.Score, r.Reason)
	case KindUpdatePolicy:
		return fmt.Sprintf("update policy → rebuild-after-deltas %d, degradation %.2f: %s",
			r.RebuildAfterDeltas, r.DegradationThreshold, r.Reason)
	default:
		return fmt.Sprintf("%s: %s", r.Kind, r.Reason)
	}
}

// Decision-table thresholds. They are deliberately coarse: the advisor's
// job is to notice unambiguous pressure, not to chase noise.
const (
	// minSignalLookups is the traffic floor below which the cache hit rate
	// is considered unmeasured.
	minSignalLookups = 256
	// highDeltaDebt is the delta-debt depth that triggers a tighter
	// RebuildAfterDeltas recommendation.
	highDeltaDebt = 128
	// worryingDegradation is the incremental-engine drift that triggers a
	// tighter DegradationThreshold recommendation.
	worryingDegradation = 0.4
	// minCacheHitRate is the hit rate below which the cache is flagged as
	// ineffective.
	minCacheHitRate = 0.5
	// margin is the minimum relative score improvement over the active
	// engine before a switch is recommended.
	margin = 0.10

	// maxRules caps how many installed rules are replayed into each shadow
	// classifier, maxHeaders the trace slice each candidate replays, and
	// benchBudget the total shadow-bench CPU time, divided evenly across
	// candidates.
	maxRules    = 2000
	maxHeaders  = 1024
	benchBudget = 200 * time.Millisecond
)

// signals is the analyzed pressure profile of one Report: how the engine
// ranking should weigh measured speed against memory footprint, plus the
// decision-table recommendations that don't need a shadow bench.
type signals struct {
	// speedWeight and memoryWeight blend the shadow-bench scores; they sum
	// to 1.
	speedWeight  float64
	memoryWeight float64
	// reasons collects the human-readable signal trail.
	reasons []string
	// extra holds the policy/cache recommendations from the decision table.
	extra []Recommendation
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// analyze runs the decision table over one observability snapshot. It is a
// pure function of the Report, which is what makes the table testable from
// synthetic fixtures.
func analyze(rep core.Report) signals {
	sig := signals{speedWeight: 0.5, memoryWeight: 0.5}

	// Cache signal: a hot cache answers the repeated flows itself, so the
	// engine behind it is consulted rarely and should be chosen for memory
	// leanness; a cold (or absent) cache puts every packet on the engine.
	cacheLookups := rep.Cache.Hits + rep.Cache.Misses
	switch {
	case !rep.CacheEnabled:
		sig.speedWeight = 0.75
		sig.reasons = append(sig.reasons, "no microflow cache: every packet pays the engine, speed dominates")
	case cacheLookups >= minSignalLookups:
		hit := float64(rep.Cache.Hits) / float64(cacheLookups)
		sig.speedWeight = clamp(1-hit, 0.1, 0.9)
		if hit < minCacheHitRate {
			sig.reasons = append(sig.reasons,
				fmt.Sprintf("cache hit rate %.0f%% below %.0f%%: traffic is cache-unfriendly, engine speed dominates",
					100*hit, 100*minCacheHitRate))
			sig.extra = append(sig.extra, Recommendation{
				Kind:  KindCache,
				Score: clamp(minCacheHitRate-hit, 0.05, 0.5),
				Reason: fmt.Sprintf("microflow cache answers only %.0f%% of lookups; consider more capacity or disabling it to reclaim %d Kbit",
					100*hit, rep.Memory.CacheBits/1024),
			})
		} else {
			sig.reasons = append(sig.reasons,
				fmt.Sprintf("cache hit rate %.0f%% absorbs the hot flows: engine memory matters more than raw speed", 100*hit))
		}
	default:
		sig.reasons = append(sig.reasons,
			fmt.Sprintf("only %d cached lookups observed (< %d): cache signal unmeasured", cacheLookups, minSignalLookups))
	}

	sig.memoryWeight = 1 - sig.speedWeight

	// Update-plane signals: deep delta debt means the incremental structure
	// has drifted far from a fresh build; worrying degradation means the
	// engine itself is reporting the drift. Both call for tighter rebuild
	// bounds.
	if debt := rep.Updates.DeltasSinceRebuild; debt >= highDeltaDebt {
		sig.extra = append(sig.extra, Recommendation{
			Kind:               KindUpdatePolicy,
			RebuildAfterDeltas: debt / 2,
			Score:              clamp(float64(debt)/float64(4*highDeltaDebt), 0.2, 0.8),
			Reason: fmt.Sprintf("delta debt %d deep (publish P99 %v): bound it at %d so rebuilds amortise the drift",
				debt, rep.Updates.PublishLatency.P99(), debt/2),
		})
	}
	if deg := rep.Memory.PacketEngineDegradation; deg >= worryingDegradation {
		sig.extra = append(sig.extra, Recommendation{
			Kind:                 KindUpdatePolicy,
			RebuildAfterDeltas:   rep.Updates.DeltasSinceRebuild / 2,
			DegradationThreshold: worryingDegradation / 2,
			Score:                clamp(deg, 0.2, 0.9),
			Reason: fmt.Sprintf("packet structure degradation %.2f: trip rebuilds at %.2f before lookup cost drifts further",
				deg, worryingDegradation/2),
		})
	}
	return sig
}

// Advise produces ranked recommendations for a live classifier, strongest
// first: the decision-table output of its current Report plus, when rules
// are installed, an engine recommendation from shadow-benching the
// candidates on the trace. A nil trace selects one derived from the
// installed rules; a longer one is cut to its most recent maxHeaders. Empty
// candidates select every selectable engine; an unknown name is an error. An
// empty slice means the current configuration already looks right. Advise
// never changes the classifier.
func Advise(c *core.Classifier, trace []fivetuple.Header, candidates []string) ([]Recommendation, error) {
	for _, name := range candidates {
		if _, ok := engine.Selectable(name); !ok {
			return nil, fmt.Errorf("advisor: unknown candidate engine %q (selectable: %v)", name, engine.SelectableNames())
		}
	}
	if len(candidates) == 0 {
		candidates = engine.SelectableNames()
	}
	rep := c.Report()
	sig := analyze(rep)
	recs := append([]Recommendation(nil), sig.extra...)

	if rules := c.InstalledRules(); len(rules) > 0 {
		switch {
		case len(trace) == 0:
			trace = syntheticTrace(rules, maxHeaders)
		case len(trace) > maxHeaders:
			trace = trace[len(trace)-maxHeaders:]
		}
		// A candidate whose capacity cannot hold the installed rule set is
		// not benched: SelectEngine would reject the switch anyway.
		cfg := c.Config()
		fits := candidates[:0:0]
		for _, name := range candidates {
			if cfg.RuleCapacityFor(name) >= rep.RulesInstalled {
				fits = append(fits, name)
			}
		}
		if len(rules) > maxRules {
			rules = rules[:maxRules]
		}
		if eng, ok := rankEngines(shadowBench(rules, trace, fits, benchBudget), sig, rep); ok {
			recs = append(recs, eng)
		}
	}
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Score > recs[j].Score })
	return recs, nil
}

// rankEngines scores the shadow-bench results by the profile-weighted blend
// of speed and memory and recommends the winner when it clearly beats the
// active engine.
func rankEngines(results []shadowResult, sig signals, rep core.Report) (Recommendation, bool) {
	// Normalisation bases: the best (lowest) measured cost on each axis.
	minNs, minMem := 0.0, 0
	for _, r := range results {
		if r.Err != nil {
			continue
		}
		if minNs == 0 || r.NsPerLookup < minNs {
			minNs = r.NsPerLookup
		}
		if r.MemoryBits > 0 && (minMem == 0 || r.MemoryBits < minMem) {
			minMem = r.MemoryBits
		}
	}
	if minNs == 0 {
		return Recommendation{}, false
	}

	score := func(r shadowResult) float64 {
		s := sig.speedWeight * (minNs / r.NsPerLookup)
		if r.MemoryBits > 0 && minMem > 0 {
			s += sig.memoryWeight * (float64(minMem) / float64(r.MemoryBits))
		}
		return s
	}

	var best shadowResult
	bestScore, activeScore := 0.0, 0.0
	for _, r := range results {
		if r.Err != nil {
			continue
		}
		s := score(r)
		if r.Engine == rep.ActiveEngine {
			activeScore = s
		}
		if s > bestScore {
			best, bestScore = r, s
		}
	}
	if best.Engine == "" || best.Engine == rep.ActiveEngine {
		return Recommendation{}, false
	}
	if activeScore > 0 && bestScore < activeScore*(1+margin) {
		return Recommendation{}, false
	}
	improvement := 1.0
	if activeScore > 0 {
		improvement = bestScore/activeScore - 1
	}
	reason := fmt.Sprintf("shadow bench replayed %d lookups over the trace: %s scores %.2f vs %s %.2f (speed weight %.2f — %s)",
		best.Lookups, best.Engine, bestScore, rep.ActiveEngine, activeScore,
		sig.speedWeight, reasonSummary(sig))
	if def, ok := engine.Get(best.Engine); ok && def.PacketFactory != nil && !def.Incremental {
		reason += "; rebuilds on every rule update; update cost not ranked"
	}
	return Recommendation{
		Kind:        KindEngine,
		Engine:      best.Engine,
		Score:       improvement,
		NsPerLookup: best.NsPerLookup,
		MemoryBits:  best.MemoryBits,
		Reason:      reason,
	}, true
}

func reasonSummary(sig signals) string {
	if len(sig.reasons) == 0 {
		return "no dominant signal"
	}
	return sig.reasons[0]
}

// syntheticTrace derives a replayable header slice from the installed rules
// when the caller supplies no trace: one deterministic in-rule header per
// rule, cycled up to maxHeaders. It exercises every engine on the actual
// rule geometry, which is the best available stand-in for unknown traffic.
func syntheticTrace(rules []fivetuple.Rule, maxHeaders int) []fivetuple.Header {
	if len(rules) == 0 {
		return nil
	}
	n := len(rules)
	if n > maxHeaders {
		n = maxHeaders
	}
	out := make([]fivetuple.Header, n)
	for i := range out {
		out[i] = syntheticHeader(rules[i])
	}
	return out
}

// syntheticHeader builds one header inside the rule's match region.
func syntheticHeader(r fivetuple.Rule) fivetuple.Header {
	h := fivetuple.Header{
		SrcIP:   r.SrcPrefix.Addr & r.SrcPrefix.Mask(),
		DstIP:   r.DstPrefix.Addr & r.DstPrefix.Mask(),
		SrcPort: r.SrcPort.Lo,
		DstPort: r.DstPort.Lo,
	}
	if r.Protocol.IsWildcard() {
		h.Protocol = fivetuple.ProtoTCP
	} else {
		h.Protocol = r.Protocol.Value & r.Protocol.Mask
	}
	return h
}
