package core

import (
	"math"
	"runtime"
	"slices"
	"testing"

	"sdnpc/internal/cache"
	"sdnpc/internal/classbench"
)

// forceLanes makes every classifier the test builds after this call have n
// serving lanes: New reads the lane count from GOMAXPROCS.
func forceLanes(t testing.TB, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestLanesFollowGOMAXPROCS pins what the lanes are sized from: one lane per
// processor the runtime schedules on, and the configured cache budget split
// across them — so the entries a configuration asks for are what it gets on
// one core and on four.
func TestLanesFollowGOMAXPROCS(t *testing.T) {
	const budget, shards = 16384, 4
	for _, n := range []int{1, 4} {
		forceLanes(t, n)
		cfg := DefaultConfig()
		cfg.CacheShards, cfg.CacheCapacity = shards, budget
		c, err := New(cfg)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		if got := len(c.lanes.all); got != n {
			t.Fatalf("GOMAXPROCS=%d built %d lanes", n, got)
		}
		total := 0
		for _, ln := range c.lanes.all {
			total += ln.microflow.Capacity()
		}
		// cache.New rounds a lane's share up to its sharded geometry; an even
		// split of a power-of-two budget needs no rounding at all.
		if want := n * cache.New[Result](shards, budget/n).Capacity(); total != want || total != budget {
			t.Errorf("%d lanes hold %d cache entries between them, want the %d-entry budget (%d after rounding)", n, total, budget, want)
		}
		if got := c.Report().Memory.CacheEntries; got != total {
			t.Errorf("Report().Memory.CacheEntries = %d, the lanes hold %d", got, total)
		}
	}
}

// TestReaderAcceptsAnyWorkerID pins the Reader contract "any id is valid":
// every int, the extremes included, maps onto one of the lanes.
func TestReaderAcceptsAnyWorkerID(t *testing.T) {
	forceLanes(t, 3)
	c, err := New(DefaultConfig())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	n := len(c.lanes.all)
	for _, worker := range []int{math.MinInt, -1, 0, n, math.MaxInt} {
		if r := c.Reader(worker); !slices.Contains(c.lanes.all, r.lane) {
			t.Errorf("Reader(%d) is pinned to no lane of the classifier", worker)
		}
	}
	if c.Reader(0).lane != c.Reader(n).lane {
		t.Errorf("Reader(0) and Reader(%d) map to different lanes, want round-robin", n)
	}
}

// TestReplicatedPublishClonesOnce pins that lanes share the published
// snapshot: an insert+delete pair allocates the same with four lanes as with
// one, because a publish clones the snapshot once whatever the lane count.
// (With one clone per lane the four-lane pair would cost four times the
// single-lane one.)
func TestReplicatedPublishClonesOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is unreliable under the race detector")
	}
	rs := classbench.Generate(classbench.StandardConfig(classbench.ACL, classbench.Size1K))
	rule := rs.Rule(0)
	pairAllocs := func(lanes int) float64 {
		forceLanes(t, lanes)
		c, err := New(DefaultConfig())
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		if err := c.SelectEngine("hypercuts"); err != nil {
			t.Fatalf("SelectEngine: %v", err)
		}
		if _, err := c.InstallRuleSet(rs); err != nil {
			t.Fatalf("InstallRuleSet: %v", err)
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := c.DeleteRule(rule); err != nil {
				t.Fatalf("DeleteRule: %v", err)
			}
			if _, err := c.InsertRule(rule); err != nil {
				t.Fatalf("InsertRule: %v", err)
			}
		})
	}
	one, four := pairAllocs(1), pairAllocs(4)
	if four > 1.1*one {
		t.Errorf("update pair allocates %.0f objects with 4 lanes, %.0f with one; want within 10%%", four, one)
	}
}
