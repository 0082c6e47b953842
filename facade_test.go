package sdnpc

import "testing"

// TestFacadeUpdatePlane exercises the incremental update surface end to end:
// WithUpdatePolicy selects the delta path, Apply drains a generated churn
// trace, and UpdateStats reports the delta/rebuild split with a populated
// latency histogram.
func TestFacadeUpdatePlane(t *testing.T) {
	c, err := New(WithEngine("hypercuts"), WithUpdatePolicy(10000, 0))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rs := MustGenerateRuleSet("acl", "1k")
	if _, err := c.InsertAll(rs); err != nil {
		t.Fatalf("InsertAll: %v", err)
	}
	ops := GenerateUpdateTrace(rs, UpdateTraceOptions{Ops: 40, Seed: 9, Locality: 0.5})
	if len(ops) != 40 {
		t.Fatalf("GenerateUpdateTrace produced %d ops, want 40", len(ops))
	}
	reports, errs, err := c.Apply(ops)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if len(reports) != len(ops) || len(errs) != len(ops) {
		t.Fatalf("Apply returned %d reports / %d errs for %d ops", len(reports), len(errs), len(ops))
	}
	for i, opErr := range errs {
		if opErr != nil {
			t.Fatalf("op %d failed: %v", i, opErr)
		}
	}
	stats := c.Report().Updates
	if stats.DeltasApplied != 40 || stats.DeltaPublishes != 1 {
		t.Errorf("UpdateStats = %+v, want one delta publish carrying all 40 ops", stats)
	}
	if stats.Rebuilds != 1 { // the bulk InsertAll
		t.Errorf("Rebuilds = %d, want exactly the bulk install's", stats.Rebuilds)
	}
	if stats.PublishLatency.Total() != 2 || stats.PublishLatency.P99() < stats.PublishLatency.P50() {
		t.Errorf("publish latency histogram inconsistent: %+v", stats.PublishLatency)
	}

	// The delta-churned classifier must still agree with a linear scan over
	// the live rules, which Rules lists best-first (they keep their original
	// priorities, so the renumbering RuleSet oracle does not apply here).
	live := c.Rules()
	for _, h := range GenerateTrace(NewRuleSet("probe", live), TraceOptions{Packets: 300, Seed: 10}) {
		wantIdx := -1
		for i, r := range live {
			if r.Matches(h) {
				wantIdx = i
				break
			}
		}
		got := c.Lookup(h)
		if got.Matched != (wantIdx >= 0) {
			t.Fatalf("after churn: Lookup(%s) matched %v, oracle %v", h, got.Matched, wantIdx >= 0)
		}
		if wantIdx >= 0 && got.Priority != live[wantIdx].Priority {
			t.Fatalf("after churn: Lookup(%s) priority %d, oracle %d", h, got.Priority, live[wantIdx].Priority)
		}
	}
}

func TestFacadeRoundTrip(t *testing.T) {
	c, err := New()
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if c.Engine() != "mbt" {
		t.Errorf("default engine = %q, want mbt", c.Engine())
	}

	web := NewRule(0).To("203.0.113.0/24").DstPort(443).Proto(TCP).Forward(1).MustBuild()
	dns := NewRule(1).From("10.0.0.0/8").DstPort(53).Proto(UDP).Punt().MustBuild()
	def := WildcardRule(2, Drop)
	for _, r := range []Rule{web, dns, def} {
		if _, err := c.Insert(r); err != nil {
			t.Fatalf("Insert(%s): %v", r, err)
		}
	}
	if c.RuleCount() != 3 {
		t.Fatalf("RuleCount = %d, want 3", c.RuleCount())
	}

	checkVerdicts := func(engineName string) {
		t.Helper()
		hit := c.Lookup(MustParseHeader("198.51.100.7", 50000, "203.0.113.10", 443, TCP))
		if !hit.Matched || hit.Action != Forward || hit.Priority != 0 {
			t.Fatalf("%s: web lookup = %+v", engineName, hit)
		}
		punt := c.Lookup(MustParseHeader("10.1.2.3", 5353, "8.8.8.8", 53, UDP))
		if !punt.Matched || punt.Action != Controller || punt.Priority != 1 {
			t.Fatalf("%s: dns lookup = %+v", engineName, punt)
		}
		miss := c.Lookup(MustParseHeader("192.0.2.1", 1, "192.0.2.2", 2, GRE))
		if !miss.Matched || miss.Action != Drop || miss.Priority != 2 {
			t.Fatalf("%s: default lookup = %+v", engineName, miss)
		}
	}
	for _, name := range Engines() {
		if err := c.SelectEngine(name); err != nil {
			t.Fatalf("SelectEngine(%s): %v", name, err)
		}
		if c.Engine() != name {
			t.Fatalf("Engine() = %q after selecting %q", c.Engine(), name)
		}
		checkVerdicts(name)
	}

	if _, err := c.Delete(dns); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if c.RuleCount() != 2 {
		t.Errorf("RuleCount after delete = %d, want 2", c.RuleCount())
	}
	res := c.Lookup(MustParseHeader("10.1.2.3", 5353, "8.8.8.8", 53, UDP))
	if !res.Matched || res.Action != Drop {
		t.Errorf("after delete, dns falls to the default rule: %+v", res)
	}
}

func TestFacadeOptions(t *testing.T) {
	if _, err := New(WithEngine("no-such-engine")); err == nil {
		t.Error("unknown engine should fail")
	}
	c, err := New(WithEngine("bst"))
	if err != nil {
		t.Fatalf("New with options: %v", err)
	}
	if c.Engine() != "bst" {
		t.Errorf("engine = %q, want bst", c.Engine())
	}
}

func TestFacadeCacheOption(t *testing.T) {
	c, err := New(WithCache(4, 1024))
	if err != nil {
		t.Fatalf("New(WithCache): %v", err)
	}
	if !c.Report().CacheEnabled {
		t.Fatal("Report().CacheEnabled is false after WithCache")
	}
	rule := NewRule(0).From("10.0.0.0/8").DstPort(443).Proto(TCP).Forward(1).MustBuild()
	if _, err := c.Insert(rule); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	h := MustParseHeader("10.1.1.1", 1000, "192.0.2.1", 443, TCP)
	// One Reader, so the second lookup probes the lane cache the first filled.
	reader := c.Reader(0)
	first := reader.Lookup(h)
	second := reader.Lookup(h)
	if first != second {
		t.Errorf("cached lookup %+v differs from the filling one %+v", second, first)
	}
	stats := c.Report().Cache
	if stats.Hits == 0 {
		t.Errorf("repeated lookup did not hit the cache: %+v", stats)
	}
	if rep := c.Report().Memory; rep.CacheEntries == 0 || rep.CacheBits == 0 {
		t.Errorf("memory report omits the cache footprint: %+v entries / %d bits", rep.CacheEntries, rep.CacheBits)
	}
	if MustNew().Report().CacheEnabled {
		t.Error("Report().CacheEnabled is true without WithCache")
	}
	if _, err := New(WithCache(0, -1)); err == nil {
		t.Error("negative cache capacity should fail validation")
	}
}

func TestRuleBuilderErrors(t *testing.T) {
	if _, err := NewRule(0).From("not-a-prefix").Build(); err == nil {
		t.Error("bad source prefix should surface at Build")
	}
	if _, err := NewRule(0).SrcPorts(9, 3).Build(); err == nil {
		t.Error("inverted port range should surface at Build")
	}
	if _, err := ParseHeader("bad", 1, "203.0.113.1", 2, TCP); err == nil {
		t.Error("bad source address should fail")
	}
}

func TestWorkloadGeneration(t *testing.T) {
	rs, err := GenerateRuleSet("acl", "1k")
	if err != nil {
		t.Fatalf("GenerateRuleSet: %v", err)
	}
	if rs.Len() == 0 {
		t.Fatal("empty generated rule set")
	}
	if _, err := GenerateRuleSet("nope", "1k"); err == nil {
		t.Error("unknown class should fail")
	}
	if _, err := GenerateRuleSet("acl", "3k"); err == nil {
		t.Error("unknown size should fail")
	}
	trace := GenerateTrace(rs, TraceOptions{Packets: 100, Seed: 1})
	if len(trace) != 100 {
		t.Fatalf("trace length = %d, want 100", len(trace))
	}
}

// TestLookupBatchInto checks the facade's reusing batch call: it answers
// exactly what LookupBatch answers and, with a recycled dst, allocates
// nothing per batch.
func TestLookupBatchInto(t *testing.T) {
	c, err := New(WithEngine("hypercuts"))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rs := MustGenerateRuleSet("acl", "1k")
	if _, err := c.InsertAll(rs); err != nil {
		t.Fatalf("InsertAll: %v", err)
	}
	trace := GenerateTrace(rs, TraceOptions{Packets: 256, Seed: 5})
	var dst []Result
	for off := 0; off < len(trace); off += 64 {
		hs := trace[off : off+64]
		dst = c.LookupBatchInto(dst, hs)
		want := c.LookupBatch(hs)
		if len(dst) != len(want) {
			t.Fatalf("LookupBatchInto answered %d results for %d headers", len(dst), len(hs))
		}
		for i := range want {
			if dst[i] != want[i] {
				t.Fatalf("header %d (%v): LookupBatchInto %+v, LookupBatch %+v", off+i, hs[i], dst[i], want[i])
			}
		}
	}
	if raceEnabled {
		t.Skip("allocation count skipped under -race (see race_on_test.go)")
	}
	hs := trace[:64]
	if n := testing.AllocsPerRun(100, func() { dst = c.LookupBatchInto(dst, hs) }); n != 0 {
		t.Fatalf("LookupBatchInto with a reused dst allocates %.1f objects per batch, want 0", n)
	}
}
