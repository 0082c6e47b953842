package core

import (
	"math"
	"slices"
	"testing"

	"sdnpc/internal/classbench"
)

// TestReaderAcceptsAnyWorkerID pins the Reader contract "any id is valid":
// every int, the extremes included, maps onto one of the replicas.
func TestReaderAcceptsAnyWorkerID(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Replicas = 3
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	n := len(c.fleet.replicas)
	for _, worker := range []int{math.MinInt, -1, 0, n, math.MaxInt} {
		if r := c.Reader(worker); !slices.Contains(c.fleet.replicas, r.rep) {
			t.Errorf("Reader(%d) is pinned to no replica of the fleet", worker)
		}
	}
	if c.Reader(0).rep != c.Reader(n).rep {
		t.Errorf("Reader(0) and Reader(%d) map to different replicas, want round-robin", n)
	}
}

// TestReplicatedPublishClonesOnce pins that replicas share the published
// snapshot: an insert+delete pair allocates the same with four replicas as
// with none, because a publish clones the snapshot once whatever the fleet
// size. (With one clone per replica the replicated pair cost five times the
// unreplicated one.)
func TestReplicatedPublishClonesOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is unreliable under the race detector")
	}
	rs := classbench.Generate(classbench.StandardConfig(classbench.ACL, classbench.Size1K))
	rule := rs.Rule(0)
	pairAllocs := func(replicas int) float64 {
		cfg := DefaultConfig()
		cfg.Replicas = replicas
		c, err := New(cfg)
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
	plain, replicated := pairAllocs(0), pairAllocs(4)
	if replicated > 1.1*plain {
		t.Errorf("update pair allocates %.0f objects with 4 replicas, %.0f with none; want within 10%%", replicated, plain)
	}
}
