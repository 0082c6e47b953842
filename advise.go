package sdnpc

import "sdnpc/internal/advisor"

// Recommendation is one engine switch suggested by Advise.
type Recommendation = advisor.Recommendation

// EngineRecommendation is the kind of every Recommendation: switch the
// serving engine.
const EngineRecommendation = advisor.KindEngine

// Advise is a one-shot, read-only engine report: it reads the live cache
// hit rate, shadow-benches candidate engines on the trace under a bounded
// CPU budget, and returns the engine recommendation — empty when the
// serving engine already looks right. A nil trace selects one derived from
// the installed rules. With no candidates every selectable engine is one;
// naming engines restricts the shadow bench to them, and an unknown name is
// an error. The ranking weighs lookup speed and memory only, never update
// cost. Advise never changes the classifier: act on the recommendation with
// SelectEngine.
func (c *Classifier) Advise(trace []Header, candidates ...string) ([]Recommendation, error) {
	return advisor.Advise(c.inner, trace, candidates)
}
