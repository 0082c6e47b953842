package fieldtier

import (
	"maps"
	"math/rand"
	"testing"

	"sdnpc/internal/fivetuple"
	"sdnpc/internal/label"
)

// TestRuleFilterGenerationsAreIsolated holds three generations of one Rule
// Filter alive — a clone and a clone of that clone, sharing slot chunks until
// written — and interleaves inserts and removals across all three. Each must
// keep answering for exactly its own entries, and a clone must share every
// chunk and the chunk table.
func TestRuleFilterGenerationsAreIsolated(t *testing.T) {
	const capacity = 1000 // not a multiple of the chunk size: the last chunk is partial
	rng := rand.New(rand.NewSource(3))
	gens := []*ruleFilter{newRuleFilter(capacity)}
	contents := []map[label.CombinationKey]int{{}}
	keyOf := func(i int) label.CombinationKey { return label.KeyFromParts(uint8(i), uint64(i)*0x9E3779B97F4A7C15) }
	verdictOf := func(priority int) fivetuple.Verdict {
		return fivetuple.Verdict{Priority: priority, Action: fivetuple.ActionForward, ActionArg: uint32(priority)}
	}
	check := func(round int) {
		t.Helper()
		for g, rf := range gens {
			if rf.used != len(contents[g]) {
				t.Fatalf("round %d: generation %d holds %d entries, want %d", round, g, rf.used, len(contents[g]))
			}
			for i := 0; i < 400; i++ {
				priority, stored := contents[g][keyOf(i)]
				if slot, got, _ := rf.lookup(keyOf(i)); (slot >= 0) != stored || (stored && (got != priority || rf.slots.At(slot).verdict() != verdictOf(priority))) {
					t.Fatalf("round %d: generation %d lookup(key %d) = slot %d priority %d, want stored=%v priority %d", round, g, i, slot, got, stored, priority)
				}
			}
		}
	}
	for round := 0; round < 600; round++ {
		if round == 150 || round == 300 {
			last := len(gens) - 1
			gens = append(gens, gens[last].clone())
			contents = append(contents, maps.Clone(contents[last]))
		}
		g, k := round%len(gens), keyOf(rng.Intn(400))
		if priority, stored := contents[g][k]; stored {
			slot, _ := gens[g].find(k, verdictOf(priority))
			if slot < 0 {
				t.Fatalf("round %d: generation %d lost key %v", round, g, k)
			}
			gens[g].remove(slot)
			delete(contents[g], k)
		} else {
			if _, _, _, err := gens[g].insert(k, verdictOf(round)); err != nil {
				t.Fatalf("round %d: generation %d insert: %v", round, g, err)
			}
			contents[g][k] = round
		}
		if round%25 == 0 {
			check(round)
		}
	}
	check(600)

	var c *ruleFilter
	if allocs := testing.AllocsPerRun(10, func() { c = gens[0].clone() }); allocs > 1 {
		t.Errorf("clone allocates %.0f objects, want the filter alone", allocs)
	}
	for i := 0; i < capacity; i++ {
		if c.slots.At(i) != gens[0].slots.At(i) {
			t.Fatalf("a fresh clone does not share slot %d with its origin", i)
		}
	}
}
