package sdnpc

import "testing"

// adviseForTrace builds a cached classifier, replays the trace through it so
// the advisor sees real cache signals, hands Advise the same trace, and
// returns the engine its top engine recommendation names ("" when it
// recommends keeping the active engine).
func adviseForTrace(t *testing.T, rs *RuleSet, opts TraceOptions) string {
	t.Helper()
	c := MustNew(WithCache(0, 2048))
	if _, err := c.InsertAll(rs); err != nil {
		t.Fatal(err)
	}
	trace := GenerateTrace(rs, opts)
	for _, h := range trace {
		c.Lookup(h)
	}
	// The candidates span a real trade-off on this rule set: rfc-full is the
	// fastest and by far the largest, bst the leanest and slowest. (hypercuts
	// is not one: holding no field tier beside its tree, it is both faster
	// and smaller than either field engine here, and wins every workload.)
	recs, err := c.Advise(trace, "mbt", "bst", "rfc-full")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.Kind == EngineRecommendation {
			t.Logf("trace %+v → %s", opts, r)
			return r.Engine
		}
	}
	t.Logf("trace %+v → no engine recommendation (active engine already right)", opts)
	return ""
}

// TestAdviseAdaptsToWorkload is the advisor's acceptance pin: it must read
// the workload, not just the engines. A cache-unfriendly trace
// (every flow distinct, the microflow cache useless) puts every packet on
// the engine, so the advisor weighs raw speed and recommends the fast
// whole-packet engine; a heavy-tailed Zipf trace is absorbed by the cache,
// so the engine behind it is chosen for memory leanness instead. The two
// workloads must yield different engine recommendations.
func TestAdviseAdaptsToWorkload(t *testing.T) {
	rs := MustGenerateRuleSet("acl", "1k")

	// Unique-flow flood: MatchFraction 1 with no locality draws a fresh
	// header per packet, so the cache hit rate collapses.
	unfriendly := adviseForTrace(t, rs, TraceOptions{Packets: 4096, Seed: 1, MatchFraction: 1})

	// Heavy-tailed flow replay: 64 flows under Zipf(1.3) keep the cache hot.
	zipf := adviseForTrace(t, rs, TraceOptions{Packets: 4096, Seed: 2, ZipfSkew: 1.3, Flows: 64})

	if unfriendly == "" {
		t.Fatal("cache-unfriendly workload must recommend an engine switch away from the default")
	}
	if unfriendly == zipf {
		t.Fatalf("advisor recommended %q for both workloads; cache-unfriendly and Zipf traffic must rank engines differently", unfriendly)
	}
}
