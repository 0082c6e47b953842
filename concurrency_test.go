package sdnpc

import (
	"runtime"
	"sync"
	"testing"

	"sdnpc/internal/core"
)

// The update-storm hammer: a writer floods the incremental update plane of
// the packet tier (single-rule inserts and deletes riding the delta-apply
// path, with the amortising rebuild every DefaultRebuildAfterDeltas deltas
// and hops between the packet engines) while readers assert
// old-or-new-snapshot consistency through the microflow cache — a cached
// verdict from a retired generation must never surface. After the storm, the
// UpdateStats counters must be coherent: every update publish was served by
// exactly one of the delta and rebuild paths, the latency histogram saw
// every publish, the delta debt never reaches the bound, and a forced
// rebuild resets it to zero. Run with -race.
func TestConcurrentUpdateStormIncremental(t *testing.T) {
	const rebuildAfterDeltas = core.DefaultRebuildAfterDeltas
	c := MustNew(WithEngine("hypercuts"), WithCache(4, 512))

	stable := NewRule(5).From("10.1.0.0/16").To("192.168.0.0/16").DstPort(443).Proto(TCP).Forward(42).MustBuild()
	if _, err := c.Insert(stable); err != nil {
		t.Fatalf("installing stable rule: %v", err)
	}
	flip := NewRule(9).From("10.2.0.0/16").To("192.168.0.0/16").DstPort(80).Proto(TCP).Drop().MustBuild()

	headerStable := MustParseHeader("10.1.2.3", 1234, "192.168.1.1", 443, TCP)
	headerFlip := MustParseHeader("10.2.9.9", 5555, "192.168.3.4", 80, TCP)
	headerMiss := MustParseHeader("172.16.0.1", 9, "172.16.0.2", 9, UDP)

	done := make(chan struct{})
	var wg sync.WaitGroup
	const readers = 4
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if r := c.Lookup(headerStable); !r.Matched || r.Priority != 5 || r.ActionArg != 42 {
					t.Errorf("stable rule lookup = %+v, want the priority-5 forward in every snapshot", r)
				}
				if r := c.Lookup(headerFlip); r.Matched && (r.Priority != 9 || r.Action != Drop) {
					t.Errorf("flip rule lookup = %+v, want a miss or the priority-9 drop", r)
				}
				if r := c.Lookup(headerMiss); r.Matched {
					t.Errorf("miss header matched %+v; no installed rule ever covers it", r)
				}
				batch := c.LookupBatch([]Header{headerFlip, headerStable, headerFlip})
				if batch[0].Matched != batch[2].Matched {
					t.Errorf("one batch saw the flip rule both installed and absent: %+v vs %+v", batch[0], batch[2])
				}
			}
		}()
	}

	// The writer hops only between packet engines, so every update publish
	// runs the packet-tier update plane and the publish accounting below is
	// exact: updates = 1 stable insert + 2 per iteration. A hop comes every
	// 100 publishes, more than rebuildAfterDeltas apart, so on an engine
	// whose degradation stays low the debt climbs to the bound and the
	// amortising rebuild fires between hops.
	packetEngines := PacketEngines()
	const writerIterations = 300
	updates := uint64(1)
	maxDebt := 0
	for i := 0; i < writerIterations; i++ {
		if _, err := c.Insert(flip); err != nil {
			t.Fatalf("insert flip: %v", err)
		}
		updates++
		if i%50 == 49 {
			if err := c.SelectEngine(packetEngines[(i/50)%len(packetEngines)]); err != nil {
				t.Fatalf("engine hop: %v", err)
			}
		}
		if _, err := c.Delete(flip); err != nil {
			t.Fatalf("delete flip: %v", err)
		}
		updates++
		debt := c.Report().Updates.DeltasSinceRebuild
		if debt >= rebuildAfterDeltas {
			t.Fatalf("delta debt %d reached the bound %d; the amortising rebuild never fired", debt, rebuildAfterDeltas)
		}
		maxDebt = max(maxDebt, debt)
	}
	if maxDebt < rebuildAfterDeltas-2 {
		t.Errorf("delta debt peaked at %d: no stretch between hops came near the bound %d", maxDebt, rebuildAfterDeltas)
	}
	close(done)
	wg.Wait()

	// Post-storm coherence: every update publish went through exactly one of
	// the two paths, and the histogram saw them all.
	stats := c.Report().Updates
	if stats.DeltaPublishes+stats.Rebuilds != updates {
		t.Errorf("delta publishes (%d) + rebuilds (%d) != update publishes (%d)",
			stats.DeltaPublishes, stats.Rebuilds, updates)
	}
	if stats.PublishLatency.Total() != updates {
		t.Errorf("PublishLatency.Total() = %d, want %d", stats.PublishLatency.Total(), updates)
	}
	if stats.DeltasApplied == 0 || stats.Rebuilds == 0 {
		t.Errorf("storm should exercise both paths: %+v", stats)
	}

	// A forced rebuild (engine re-selection reinstalls the structure) must
	// reset the delta debt coherently.
	if err := c.SelectEngine("dcfl"); err != nil {
		t.Fatalf("forcing a rebuild: %v", err)
	}
	if got := c.Report().Updates.DeltasSinceRebuild; got != 0 {
		t.Errorf("DeltasSinceRebuild after a forced rebuild = %d, want 0", got)
	}

	// Quiesced end state: the flip rule is deleted; any cached verdict for
	// it belongs to a retired generation and must not surface.
	for i := 0; i < 3; i++ {
		if r := c.Lookup(headerFlip); r.Matched {
			t.Fatalf("flip rule served after its final delete (stale-generation cache hit): %+v", r)
		}
		if r := c.Lookup(headerStable); !r.Matched || r.Priority != 5 {
			t.Fatalf("stable rule lost after the storm: %+v", r)
		}
	}
	if rep := c.Report(); !rep.CacheEnabled || rep.Cache.Hits == 0 {
		t.Errorf("the storm never hit the cache: %+v", rep.Cache)
	}
}

// The concurrent-serving hammer: N goroutines call Lookup and LookupBatch
// while one writer inserts and deletes a rule and switches the serving
// engine across every selectable name — Engines() covers both tiers, so the
// writer repeatedly moves the classifier between the per-field label path
// and the whole-packet engines (rfc-full, dcfl, hypercuts) mid-traffic.
// Every observed result must be consistent with either the pre-update or the
// post-update rule set — the snapshot-swap guarantee. Run it with -race; the
// race detector is what turns "no torn state was observed" into "no torn
// state was readable".
func TestConcurrentServingDuringUpdates(t *testing.T) {
	c := MustNew()

	stable := NewRule(5).From("10.1.0.0/16").To("192.168.0.0/16").DstPort(443).Proto(TCP).Forward(42).MustBuild()
	if _, err := c.Insert(stable); err != nil {
		t.Fatalf("installing stable rule: %v", err)
	}
	flip := NewRule(9).From("10.2.0.0/16").To("192.168.0.0/16").DstPort(80).Proto(TCP).Drop().MustBuild()

	headerStable := MustParseHeader("10.1.2.3", 1234, "192.168.1.1", 443, TCP)
	headerFlip := MustParseHeader("10.2.9.9", 5555, "192.168.3.4", 80, TCP)
	headerMiss := MustParseHeader("172.16.0.1", 9, "172.16.0.2", 9, UDP)

	checkStable := func(r Result) {
		if !r.Matched || r.Priority != 5 || r.Action != Forward || r.ActionArg != 42 {
			t.Errorf("stable rule lookup = %+v, want priority-5 forward to 42 in every snapshot", r)
		}
	}
	checkFlip := func(r Result) {
		if r.Matched && (r.Priority != 9 || r.Action != Drop) {
			t.Errorf("flip rule lookup = %+v, want either a miss or the priority-9 drop", r)
		}
	}
	checkMiss := func(r Result) {
		if r.Matched {
			t.Errorf("miss header matched %+v; no installed rule covers it", r)
		}
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	const readers = 4
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				checkStable(c.Lookup(headerStable))
				checkFlip(c.Lookup(headerFlip))
				checkMiss(c.Lookup(headerMiss))

				batch := c.LookupBatch([]Header{headerStable, headerFlip, headerMiss, headerFlip})
				checkStable(batch[0])
				checkFlip(batch[1])
				checkMiss(batch[2])
				checkFlip(batch[3])
				// A batch is served by one snapshot, so the two flip
				// lookups inside it must agree even though the writer is
				// inserting and deleting that rule the whole time.
				if batch[1].Matched != batch[3].Matched {
					t.Errorf("one batch saw the flip rule both installed and absent: %+v vs %+v", batch[1], batch[3])
				}
				rep := SummarizeBatch(batch)
				if rep.Packets != 4 || rep.Matched < 1 {
					t.Errorf("batch summary inconsistent: %+v", rep)
				}
			}
		}()
	}

	// Report rides along. It reads one published snapshot and nothing the
	// writer owns — the field tier's label bank is the writer's, so its
	// footprint comes stamped on the tier — which is for the race detector to
	// confirm and these two checks to keep honest.
	reporting := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for pass := 0; ; pass++ {
			if pass == 1 {
				close(reporting)
			}
			select {
			case <-done:
				return
			default:
			}
			rep := c.Report()
			if rep.RulesInstalled < 1 || rep.RulesInstalled > 2 {
				t.Errorf("Report saw %d rules installed, want the stable rule with or without the flip rule", rep.RulesInstalled)
			}
			// One label per dimension and rule at most, 13+16 bits each.
			if bits := rep.Memory.LabelTableBits; (rep.Memory.IPEngine != "") != (bits > 0) || bits > rep.RulesInstalled*7*29 {
				t.Errorf("Report of a %q-engine snapshot with %d rules carries %d label-table bits", rep.ActiveEngine, rep.RulesInstalled, bits)
			}
		}
	}()
	<-reporting

	engines := Engines()
	const writerIterations = 120
	for i := 0; i < writerIterations; i++ {
		if _, err := c.Insert(flip); err != nil {
			t.Errorf("insert flip: %v", err)
			break
		}
		if i%20 == 10 {
			if err := c.SelectEngine(engines[(i/20)%len(engines)]); err != nil {
				t.Errorf("engine switch: %v", err)
				break
			}
		}
		if _, err := c.Delete(flip); err != nil {
			t.Errorf("delete flip: %v", err)
			break
		}
	}
	close(done)
	wg.Wait()

	if got := c.RuleCount(); got != 1 {
		t.Errorf("RuleCount after the hammer = %d, want 1 (the stable rule)", got)
	}
	checkStable(c.Lookup(headerStable))
	if r := c.Lookup(headerFlip); r.Matched {
		t.Errorf("flip rule still installed after final delete: %+v", r)
	}
	stats := c.Report().Stats
	if stats.Inserts != writerIterations+1 || stats.Deletes != writerIterations {
		t.Errorf("stats = %d inserts / %d deletes, want %d / %d",
			stats.Inserts, stats.Deletes, writerIterations+1, writerIterations)
	}
}

// The cache-coherence hammer: the same update storm, tier hops and lookup
// flood as above, but with the microflow cache in front of both tiers. The
// invariants tighten accordingly: a lookup must never return a verdict
// inconsistent with the old-or-new snapshot — in cache terms, a
// stale-generation entry must never be served after the writer's
// clone-mutate-swap publishes a successor, even though the cache is shared
// across snapshots and never flushed. Readers hammer a tiny header set so
// nearly every lookup is a cache hit or fill; the writer churns the rule set
// and hops engines so generations retire constantly. Run with -race.
func TestConcurrentCacheCoherenceDuringUpdates(t *testing.T) {
	c := MustNew(WithCache(4, 512))

	stable := NewRule(5).From("10.1.0.0/16").To("192.168.0.0/16").DstPort(443).Proto(TCP).Forward(42).MustBuild()
	if _, err := c.Insert(stable); err != nil {
		t.Fatalf("installing stable rule: %v", err)
	}
	flip := NewRule(9).From("10.2.0.0/16").To("192.168.0.0/16").DstPort(80).Proto(TCP).Drop().MustBuild()

	headerStable := MustParseHeader("10.1.2.3", 1234, "192.168.1.1", 443, TCP)
	headerFlip := MustParseHeader("10.2.9.9", 5555, "192.168.3.4", 80, TCP)
	headerMiss := MustParseHeader("172.16.0.1", 9, "172.16.0.2", 9, UDP)

	checkStable := func(r Result) {
		if !r.Matched || r.Priority != 5 || r.Action != Forward || r.ActionArg != 42 {
			t.Errorf("stable rule lookup = %+v, want priority-5 forward to 42 in every snapshot", r)
		}
	}
	checkFlip := func(r Result) {
		if r.Matched && (r.Priority != 9 || r.Action != Drop) {
			t.Errorf("flip rule lookup = %+v, want either a miss or the priority-9 drop", r)
		}
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	const readers = 4
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				checkStable(c.Lookup(headerStable))
				checkFlip(c.Lookup(headerFlip))
				if r := c.Lookup(headerMiss); r.Matched {
					t.Errorf("miss header matched %+v; no installed rule ever covers it", r)
				}
				batch := c.LookupBatch([]Header{headerFlip, headerStable, headerFlip})
				// One batch is served by one snapshot generation: the two
				// flip lookups must agree even though the writer inserts and
				// deletes that rule — and retires cache generations — the
				// whole time.
				if batch[0].Matched != batch[2].Matched {
					t.Errorf("one batch saw the flip rule both installed and absent: %+v vs %+v", batch[0], batch[2])
				}
				checkStable(batch[1])
			}
		}()
	}

	engines := Engines()
	const writerIterations = 120
	for i := 0; i < writerIterations; i++ {
		if _, err := c.Insert(flip); err != nil {
			t.Errorf("insert flip: %v", err)
			break
		}
		if i%15 == 7 {
			if err := c.SelectEngine(engines[(i/15)%len(engines)]); err != nil {
				t.Errorf("engine switch: %v", err)
				break
			}
		}
		if _, err := c.Delete(flip); err != nil {
			t.Errorf("delete flip: %v", err)
			break
		}
	}
	close(done)
	wg.Wait()

	// The writer has stopped with the flip rule deleted. Any cached verdict
	// for it belongs to a retired generation; serving one now would be the
	// stale-generation hit the design forbids.
	for i := 0; i < 3; i++ {
		if r := c.Lookup(headerFlip); r.Matched {
			t.Fatalf("flip rule served after its final delete (stale-generation cache hit): %+v", r)
		}
		checkStable(c.Lookup(headerStable))
	}
	rep := c.Report()
	if !rep.CacheEnabled {
		t.Fatal("cache disabled on a WithCache classifier")
	}
	if rep.Cache.Hits == 0 {
		t.Errorf("the hammer never hit the cache: %+v", rep.Cache)
	}
	if got := c.RuleCount(); got != 1 {
		t.Errorf("RuleCount after the hammer = %d, want 1 (the stable rule)", got)
	}
}

// The lane-coherence hammer: the update storm, engine-tier hops and tenant
// churn run against a cached classifier forced onto four serving lanes —
// private caches, private counters — in front of the one published snapshot;
// worker-pinned readers hammer their own lane and assert that every observed
// verdict is a single consistent cut — old rule set or new, never a mix
// inside one batch — and that the generation a reader observes never moves
// backwards. Stale verdicts cannot be served by construction (each lane's
// private cache is generation-keyed against the snapshot the lookup loaded),
// which the quiesced flip-rule probes pin down. After the storm quiesces,
// every reader serves the publish generation. Run with -race.
func TestConcurrentReplicaCoherence(t *testing.T) {
	const lanes, cacheBudget = 4, 512
	prev := runtime.GOMAXPROCS(lanes) // the lane count is read when a classifier is built
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	c := MustNew(WithEngine("hypercuts"), WithCache(4, cacheBudget))

	stable := NewRule(5).From("10.1.0.0/16").To("192.168.0.0/16").DstPort(443).Proto(TCP).Forward(42).MustBuild()
	if _, err := c.Insert(stable); err != nil {
		t.Fatalf("installing stable rule: %v", err)
	}
	flip := NewRule(9).From("10.2.0.0/16").To("192.168.0.0/16").DstPort(80).Proto(TCP).Drop().MustBuild()

	headerStable := MustParseHeader("10.1.2.3", 1234, "192.168.1.1", 443, TCP)
	headerFlip := MustParseHeader("10.2.9.9", 5555, "192.168.3.4", 80, TCP)
	headerMiss := MustParseHeader("172.16.0.1", 9, "172.16.0.2", 9, UDP)

	checkStable := func(r Result) {
		if !r.Matched || r.Priority != 5 || r.Action != Forward || r.ActionArg != 42 {
			t.Errorf("stable rule lookup = %+v, want priority-5 forward to 42 in every snapshot", r)
		}
	}
	checkFlip := func(r Result) {
		if r.Matched && (r.Priority != 9 || r.Action != Drop) {
			t.Errorf("flip rule lookup = %+v, want either a miss or the priority-9 drop", r)
		}
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	// Two worker-pinned readers per lane: distinct worker ids that map to
	// the same lane must still each see a consistent cut.
	const readers = 2 * lanes
	// The storm starts once every reader has served a full pass: an update
	// costs what it touches, so the writer could otherwise be done before a
	// reader is scheduled at all.
	var serving sync.WaitGroup
	serving.Add(readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			reader := c.Reader(worker)
			lastGen := reader.Generation()
			for pass := 0; ; pass++ {
				if pass == 1 {
					serving.Done()
				}
				select {
				case <-done:
					return
				default:
				}
				checkStable(reader.Lookup(headerStable))
				checkFlip(reader.Lookup(headerFlip))
				if r := reader.Lookup(headerMiss); r.Matched {
					t.Errorf("miss header matched %+v; no installed rule ever covers it", r)
				}
				// One batch is served by one snapshot: the two flip lookups
				// must agree — old or new, never mixed — even while the
				// writer swaps snapshots underneath.
				batch := reader.LookupBatch([]Header{headerFlip, headerStable, headerFlip})
				if batch[0].Matched != batch[2].Matched {
					t.Errorf("one batch saw the flip rule both installed and absent: %+v vs %+v", batch[0], batch[2])
				}
				checkStable(batch[1])
				// The generation a reader serves is monotonic: a publish
				// replaces the snapshot with successors only.
				if g := reader.Generation(); g < lastGen {
					t.Errorf("reader generation moved backwards: %d after %d", g, lastGen)
				} else {
					lastGen = g
				}
			}
		}(i)
	}

	// Tenant churn rides along: short-lived cached classifiers are built,
	// served and dropped while the long-lived one is under storm, so lane
	// construction and teardown race against steady-state serving.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			tc := MustNew(WithCache(2, 128))
			if _, err := tc.Insert(stable); err != nil {
				t.Errorf("churn tenant insert: %v", err)
				return
			}
			checkStable(tc.Reader(0).Lookup(headerStable))
			checkStable(tc.Reader(1).Lookup(headerStable))
		}
	}()

	// 40 round trips already retire a hundred generations in every lane's
	// cache.
	engines := Engines()
	const writerIterations = 40
	serving.Wait()
	for i := 0; i < writerIterations; i++ {
		if _, err := c.Insert(flip); err != nil {
			t.Errorf("insert flip: %v", err)
			break
		}
		if i%14 == 7 {
			if err := c.SelectEngine(engines[(i/14)%len(engines)]); err != nil {
				t.Errorf("engine switch: %v", err)
				break
			}
		}
		if _, err := c.Delete(flip); err != nil {
			t.Errorf("delete flip: %v", err)
			break
		}
	}
	close(done)
	wg.Wait()

	// Quiesced: every reader serves the final publish, and the lanes still
	// hold the configured cache budget between them.
	rep := c.Report()
	for i := 0; i < lanes; i++ {
		if g := c.Reader(i).Generation(); g != rep.Generation {
			t.Errorf("reader %d serves generation %d, publish generation is %d", i, g, rep.Generation)
		}
	}
	if !rep.CacheEnabled || rep.Memory.CacheEntries != cacheBudget {
		t.Errorf("the lanes hold %d cache entries (enabled %t), want the %d-entry budget", rep.Memory.CacheEntries, rep.CacheEnabled, cacheBudget)
	}
	if rep.Cache.Hits == 0 {
		t.Errorf("the hammer never hit a lane cache: %+v", rep.Cache)
	}

	// The flip rule ended deleted; any cached verdict for it belongs to a
	// retired generation on some lane and must not surface from any of
	// them — the stale-hits-stay-zero guarantee, observed by verdict.
	for worker := 0; worker < readers; worker++ {
		if r := c.Reader(worker).Lookup(headerFlip); r.Matched {
			t.Fatalf("worker %d served the flip rule after its final delete (stale lane cache hit): %+v", worker, r)
		}
		checkStable(c.Reader(worker).Lookup(headerStable))
	}
	if got := c.RuleCount(); got != 1 {
		t.Errorf("RuleCount after the hammer = %d, want 1 (the stable rule)", got)
	}
}
