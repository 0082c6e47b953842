package core

import (
	"testing"

	"sdnpc/internal/classbench"
	"sdnpc/internal/engine"
	"sdnpc/internal/fivetuple"
)

// uncachedConfig returns the default configuration with the named engine
// selected (either tier; "" keeps the default) and the cache off.
func uncachedConfig(engineName string) Config {
	cfg := DefaultConfig()
	if engineName != "" {
		if isPacket, ok := engine.Selectable(engineName); ok && isPacket {
			cfg.PacketEngine = engineName
		} else {
			cfg.IPEngine = engineName
		}
	}
	return cfg
}

// cachedConfig is uncachedConfig with the microflow cache enabled.
func cachedConfig(engineName string) Config {
	cfg := uncachedConfig(engineName)
	cfg.CacheShards = 4
	cfg.CacheCapacity = 1024
	return cfg
}

// TestCachedLookupMatchesUncached replays one trace through a cached and an
// uncached classifier for one engine of each tier and requires byte-identical
// Results — on the first (filling) pass and on the second (hitting) pass.
func TestCachedLookupMatchesUncached(t *testing.T) {
	rs := classbench.Generate(classbench.Config{Class: classbench.ACL, Rules: 300, Seed: 5})
	trace := classbench.GenerateTrace(rs, classbench.TraceConfig{Packets: 600, Seed: 6, MatchFraction: 0.8})

	for _, name := range []string{"mbt", "hypercuts"} {
		t.Run(name, func(t *testing.T) {
			plain := MustNew(uncachedConfig(name))
			cached := MustNew(cachedConfig(name))
			if !cached.CacheEnabled() || plain.CacheEnabled() {
				t.Fatal("cache enablement does not follow the configuration")
			}
			for _, c := range []*Classifier{plain, cached} {
				if _, err := c.InstallRuleSet(rs); err != nil {
					t.Fatalf("install: %v", err)
				}
			}
			for pass := 0; pass < 2; pass++ {
				for i, h := range trace {
					want := plain.Lookup(h)
					got := cached.Lookup(h)
					if got != want {
						t.Fatalf("pass %d header %d (%s): cached lookup = %+v, uncached = %+v", pass, i, h, got, want)
					}
				}
			}
			rep := cached.Report()
			if !rep.CacheEnabled {
				t.Fatal("Report().CacheEnabled is false on a cached classifier")
			}
			if rep.Cache.Hits == 0 {
				t.Errorf("replaying the trace twice produced no cache hits: %+v", rep.Cache)
			}
			if plain.Report().CacheEnabled {
				t.Error("Report().CacheEnabled is true on an uncached classifier")
			}
		})
	}
}

// TestCacheInvalidationOnUpdate is the generation contract: any published
// update — insert, delete, batch, engine switch across tiers — must make
// every previously cached verdict unservable, with no flush.
func TestCacheInvalidationOnUpdate(t *testing.T) {
	forceLanes(t, 1) // every lookup below must probe the cache the previous one filled
	c := MustNew(cachedConfig(""))
	rule := mustRule(t, "10.0.0.0/8", "192.168.0.0/16", 443, fivetuple.ProtoTCP, 0)
	h := fivetuple.Header{
		SrcIP:    fivetuple.MustParseIPv4("10.1.2.3"),
		DstIP:    fivetuple.MustParseIPv4("192.168.9.9"),
		SrcPort:  1234,
		DstPort:  443,
		Protocol: fivetuple.ProtoTCP,
	}

	if r := c.Lookup(h); r.Matched {
		t.Fatalf("empty classifier matched %+v", r)
	}
	// The miss is now cached; the insert must invalidate it.
	if _, err := c.InsertRule(rule); err != nil {
		t.Fatalf("insert: %v", err)
	}
	if r := c.Lookup(h); !r.Matched || r.Priority != 0 {
		t.Fatalf("lookup after insert = %+v, want the inserted rule (cached miss must not survive the swap)", r)
	}
	// The hit is now cached; the delete must invalidate it.
	if _, err := c.DeleteRule(rule); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if r := c.Lookup(h); r.Matched {
		t.Fatalf("lookup after delete = %+v, want a miss (stale-generation hit served)", r)
	}
	// Batched updates and tier switches publish too.
	if _, _, err := c.ApplyUpdates([]UpdateOp{{Rule: rule}}); err != nil {
		t.Fatalf("ApplyUpdates: %v", err)
	}
	if r := c.Lookup(h); !r.Matched {
		t.Fatal("lookup after batched insert missed")
	}
	for _, name := range []string{"hypercuts", "bst"} {
		if err := c.SelectEngine(name); err != nil {
			t.Fatalf("SelectEngine(%s): %v", name, err)
		}
		if r := c.Lookup(h); !r.Matched || r.Priority != 0 {
			t.Fatalf("lookup after switching to %s = %+v, want the installed rule", name, r)
		}
	}
	stats := c.Report().Cache
	if stats.StaleGenerations == 0 {
		t.Errorf("no stale-generation drops were recorded across %d invalidating updates: %+v", 5, stats)
	}
}

// TestCacheRejectedUpdateKeepsCacheWarm verifies the flip side of O(1)
// invalidation: an update that publishes nothing (a no-op engine reselect)
// keeps the generation, so warm entries keep hitting.
func TestCacheRejectedUpdateKeepsCacheWarm(t *testing.T) {
	forceLanes(t, 1) // the second lookup must probe the cache the first one filled
	c := MustNew(cachedConfig("mbt"))
	h := fivetuple.Header{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Protocol: 6}
	c.Lookup(h)
	if err := c.SelectEngine("mbt"); err != nil { // already active: no publish
		t.Fatalf("no-op reselect: %v", err)
	}
	c.Lookup(h)
	stats := c.Report().Cache
	if stats.Hits == 0 {
		t.Errorf("warm entry was lost by a no-op reselect: %+v", stats)
	}
}

// TestCacheMemoryReport checks the honest footprint accounting.
func TestCacheMemoryReport(t *testing.T) {
	uncached := MustNew(DefaultConfig())
	if rep := uncached.Report().Memory; rep.CacheEntries != 0 || rep.CacheBits != 0 {
		t.Errorf("uncached report claims cache storage: %+v entries, %d bits", rep.CacheEntries, rep.CacheBits)
	}
	c := MustNew(cachedConfig(""))
	rep := c.Report().Memory
	if rep.CacheEntries < 1024 {
		t.Errorf("CacheEntries = %d, want >= the configured 1024", rep.CacheEntries)
	}
	if rep.CacheBits <= rep.CacheEntries*8 {
		t.Errorf("CacheBits = %d for %d entries: entries cannot fit in one byte each", rep.CacheBits, rep.CacheEntries)
	}
	// The cache is software state, not a modelled block memory.
	if total := rep.TotalUsedBits(); total != MustNew(DefaultConfig()).Report().Memory.TotalUsedBits() {
		t.Errorf("cache footprint leaked into the hardware block-memory total: %d", total)
	}
}

// TestCacheBatchUsesOneSnapshot pins the batch contract with the cache on:
// every result of one LookupBatch call is served by one snapshot generation,
// so two identical headers inside a batch must agree even under churn.
func TestCacheBatchUsesOneSnapshot(t *testing.T) {
	c := MustNew(cachedConfig(""))
	rule := mustRule(t, "10.0.0.0/8", "0.0.0.0/0", 80, fivetuple.ProtoTCP, 0)
	if _, err := c.InsertRule(rule); err != nil {
		t.Fatalf("insert: %v", err)
	}
	h := fivetuple.Header{SrcIP: fivetuple.MustParseIPv4("10.0.0.1"), DstIP: 9, SrcPort: 1, DstPort: 80, Protocol: fivetuple.ProtoTCP}
	results := c.LookupBatch([]fivetuple.Header{h, h, h})
	for i, r := range results {
		if r != results[0] {
			t.Fatalf("batch result %d = %+v differs from %+v within one batch", i, r, results[0])
		}
	}
}

// mustRule builds one exact-ish test rule.
func mustRule(t *testing.T, src, dst string, dstPort uint16, proto uint8, priority int) fivetuple.Rule {
	t.Helper()
	return fivetuple.Rule{
		Priority:  priority,
		SrcPrefix: fivetuple.MustParsePrefix(src),
		DstPrefix: fivetuple.MustParsePrefix(dst),
		SrcPort:   fivetuple.WildcardPortRange(),
		DstPort:   fivetuple.ExactPort(dstPort),
		Protocol:  fivetuple.ExactProtocol(proto),
		Action:    fivetuple.ActionForward,
	}
}
