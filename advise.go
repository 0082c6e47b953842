package sdnpc

import "sdnpc/internal/advisor"

// Recommendation is one ranked tuning suggestion from Advise: an engine
// switch, new update-policy bounds, or a cache advisory.
type Recommendation = advisor.Recommendation

// Recommendation kinds.
const (
	// EngineRecommendation suggests switching the serving engine.
	EngineRecommendation = advisor.KindEngine
	// UpdatePolicyRecommendation suggests new delta-vs-rebuild bounds.
	UpdatePolicyRecommendation = advisor.KindUpdatePolicy
	// CacheRecommendation flags a cache mismatch.
	CacheRecommendation = advisor.KindCache
)

// Advise is a one-shot, read-only engine report: it reads the live Report
// signals (cache hit rate, delta debt, publish latency, memory bits),
// shadow-benches candidate engines on the trace under a bounded CPU budget,
// and returns ranked recommendations — strongest first, empty when the
// current configuration already looks right. A nil trace selects one derived
// from the installed rules. With no candidates every selectable engine is
// one; naming engines restricts the shadow bench to them, and an unknown
// name is an error. The ranking weighs lookup speed and memory only, never
// update cost. Advise never changes the classifier: act on an engine
// recommendation with SelectEngine.
func (c *Classifier) Advise(trace []Header, candidates ...string) ([]Recommendation, error) {
	return advisor.Advise(c.inner, trace, candidates)
}
