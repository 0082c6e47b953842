// Package advisor is the read-only engine report: it turns the cache hit
// rate a running Classifier already exposes plus a shadow bench of candidate
// engines on a caller-supplied trace into an engine Recommendation.
//
// The flow is signal → shadow-bench → recommend:
//
//  1. analyze reads one Classifier.Report() and derives the workload's
//     pressure profile — how much raw engine speed matters versus memory
//     footprint (a hot cache absorbs repeated flows, so the engine behind
//     it should be chosen for leanness; a cold cache puts every packet on
//     the engine, so speed dominates).
//  2. shadowBench replays the trace (or, when the caller has none, a
//     synthetic trace derived from the installed rules) against a fresh
//     classifier per candidate engine, under a bounded CPU budget.
//  3. rankEngines scores every candidate by the profile-weighted blend of
//     measured speed and memory, and recommends a switch only when it beats
//     the active engine by a clear margin. It ranks lookup speed and memory
//     only — never update cost.
//
// Advise changes nothing. Whoever reads the report acts on it through
// SelectEngine.
package advisor

import (
	"fmt"
	"time"

	"sdnpc/internal/core"
	"sdnpc/internal/engine"
	"sdnpc/internal/fivetuple"
)

// Kind classifies what a Recommendation asks to change.
type Kind string

// KindEngine, the kind of every Recommendation, recommends switching the
// serving engine (either tier) through SelectEngine.
const KindEngine Kind = "engine"

// Recommendation is one self-describing engine switch suggestion.
type Recommendation struct {
	// Kind is always KindEngine.
	Kind Kind `json:"kind"`
	// Engine is the recommended engine.
	Engine string `json:"engine,omitempty"`
	// Reason explains the signal that produced the recommendation.
	Reason string `json:"reason"`
	// Score is the relative score improvement over the active engine.
	Score float64 `json:"score"`
	// NsPerLookup and MemoryBits carry the shadow-bench measurements behind
	// the recommendation.
	NsPerLookup float64 `json:"ns_per_lookup,omitempty"`
	MemoryBits  int     `json:"memory_bits,omitempty"`
}

// String renders the recommendation for logs.
func (r Recommendation) String() string {
	return fmt.Sprintf("engine → %s (score %+.0f%%): %s", r.Engine, 100*r.Score, r.Reason)
}

// Decision-table thresholds. They are deliberately coarse: the advisor's
// job is to notice unambiguous pressure, not to chase noise.
const (
	// minSignalLookups is the traffic floor below which the cache hit rate
	// is considered unmeasured.
	minSignalLookups = 256
	// minCacheHitRate is the hit rate below which the traffic is reported
	// as cache-unfriendly.
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
// ranking should weigh measured speed against memory footprint.
type signals struct {
	// speedWeight and memoryWeight blend the shadow-bench scores; they sum
	// to 1.
	speedWeight  float64
	memoryWeight float64
	// reasons collects the human-readable signal trail.
	reasons []string
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

// analyze derives the pressure profile from one observability snapshot. It
// is a pure function of the Report, which is what makes it testable from
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
		} else {
			sig.reasons = append(sig.reasons,
				fmt.Sprintf("cache hit rate %.0f%% absorbs the hot flows: engine memory matters more than raw speed", 100*hit))
		}
	default:
		sig.reasons = append(sig.reasons,
			fmt.Sprintf("only %d cached lookups observed (< %d): cache signal unmeasured", cacheLookups, minSignalLookups))
	}

	sig.memoryWeight = 1 - sig.speedWeight
	return sig
}

// Advise produces the engine recommendation for a live classifier: when
// rules are installed, the candidate that wins a shadow bench on the trace,
// weighted by the profile of its current Report. A nil trace selects one
// derived from the installed rules; a longer one is cut to its most recent
// maxHeaders. Empty candidates select every selectable engine; an unknown
// name is an error. An empty slice means the serving engine already looks
// right. Advise never changes the classifier.
func Advise(c *core.Classifier, trace []fivetuple.Header, candidates []string) ([]Recommendation, error) {
	for _, name := range candidates {
		if _, ok := engine.Selectable(name); !ok {
			return nil, fmt.Errorf("advisor: unknown candidate engine %q (selectable: %v)", name, engine.SelectableNames())
		}
	}
	if len(candidates) == 0 {
		candidates = engine.SelectableNames()
	}
	rules := c.InstalledRules()
	if len(rules) == 0 {
		return nil, nil
	}
	switch {
	case len(trace) == 0:
		trace = syntheticTrace(rules, maxHeaders)
	case len(trace) > maxHeaders:
		trace = trace[len(trace)-maxHeaders:]
	}
	// A candidate whose capacity cannot hold the installed rule set is not
	// benched: SelectEngine would reject the switch anyway.
	rep := c.Report()
	fits := candidates[:0:0]
	for _, name := range candidates {
		if core.RuleCapacityFor(name) >= rep.RulesInstalled {
			fits = append(fits, name)
		}
	}
	if len(rules) > maxRules {
		rules = rules[:maxRules]
	}
	if eng, ok := rankEngines(shadowBench(rules, trace, fits, benchBudget), analyze(rep), rep); ok {
		return []Recommendation{eng}, nil
	}
	return nil, nil
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
