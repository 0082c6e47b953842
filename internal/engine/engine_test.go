package engine_test

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"sdnpc/internal/engine"
	"sdnpc/internal/label"
)

// storedPrefix is one (prefix, label, priority) triple held by the oracle.
type storedPrefix struct {
	value    uint32
	bits     uint8
	lbl      label.Label
	priority int
}

func (p storedPrefix) matches(key uint32) bool {
	if p.bits == 0 {
		return true
	}
	shift := 16 - uint32(p.bits)
	return key>>shift == p.value>>shift
}

// oracleLookup is the naive linear-scan reference: the labels of every
// stored prefix matching the key, sorted by ascending priority.
func oracleLookup(stored []storedPrefix, key uint32) []label.Label {
	matches := make([]storedPrefix, 0, 4)
	for _, p := range stored {
		if p.matches(key) {
			matches = append(matches, p)
		}
	}
	sort.Slice(matches, func(i, j int) bool { return matches[i].priority < matches[j].priority })
	out := make([]label.Label, len(matches))
	for i, p := range matches {
		out[i] = p.lbl
	}
	return out
}

// randomPrefixes generates n distinct 16-bit prefixes with unique labels and
// unique priorities (unique priorities make the HPML order deterministic).
func randomPrefixes(rng *rand.Rand, n int) []storedPrefix {
	seen := make(map[[2]uint32]bool)
	out := make([]storedPrefix, 0, n)
	for len(out) < n {
		bits := uint8(rng.Intn(17))
		value := uint32(rng.Intn(1 << 16))
		if bits < 16 {
			value &^= 1<<(16-uint32(bits)) - 1
		}
		k := [2]uint32{value, uint32(bits)}
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, storedPrefix{
			value:    value,
			bits:     bits,
			lbl:      label.Label(len(out) + 1),
			priority: len(out),
		})
	}
	return out
}

func sameLabels(got *label.List, want []label.Label) bool {
	if got.Len() != len(want) {
		return false
	}
	gotSet := make(map[label.Label]bool, got.Len())
	for _, l := range got.Labels() {
		gotSet[l] = true
	}
	for _, l := range want {
		if !gotSet[l] {
			return false
		}
	}
	return true
}

// TestIPEngineConformance runs every registered IP-capable engine through a
// shared suite: insert/lookup/remove round-trip against a naive linear-scan
// oracle on a random prefix set, HPML ordering, reprioritisation, and
// drain-to-empty.
func TestIPEngineConformance(t *testing.T) {
	names := engine.IPEngineNames()
	if len(names) < 4 {
		t.Fatalf("expected at least 4 registered IP engines, got %v", names)
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			eng, err := engine.New(name, engine.Spec{KeyBits: 16, LabelBits: 13})
			if err != nil {
				t.Fatalf("New(%s): %v", name, err)
			}
			rng := rand.New(rand.NewSource(42))
			stored := randomPrefixes(rng, 120)
			for _, p := range stored {
				if _, err := eng.Insert(engine.Prefix(p.value, p.bits), p.lbl, p.priority); err != nil {
					t.Fatalf("Insert(%#x/%d): %v", p.value, p.bits, err)
				}
			}

			checkAgainstOracle := func(phase string, current []storedPrefix) {
				t.Helper()
				for i := 0; i < 500; i++ {
					key := uint32(rng.Intn(1 << 16))
					want := oracleLookup(current, key)
					got, accesses := eng.Lookup(key)
					if accesses < 1 {
						t.Fatalf("%s: Lookup(%#x) reported %d accesses", phase, key, accesses)
					}
					if !sameLabels(got, want) {
						t.Fatalf("%s: Lookup(%#x) labels = %v, oracle %v", phase, key, got.Labels(), want)
					}
					if len(want) > 0 {
						hpml, ok := got.HPML()
						if !ok || hpml.Label != want[0] {
							t.Fatalf("%s: Lookup(%#x) HPML = %v, want label %d", phase, key, hpml, want[0])
						}
					}
				}
			}
			checkAgainstOracle("after insert", stored)

			// Remove half, verify, then reprioritise a third of the rest and
			// verify the new HPML order.
			half := len(stored) / 2
			for _, p := range stored[:half] {
				if _, err := eng.Remove(engine.Prefix(p.value, p.bits), p.lbl); err != nil {
					t.Fatalf("Remove(%#x/%d): %v", p.value, p.bits, err)
				}
			}
			remaining := append([]storedPrefix(nil), stored[half:]...)
			checkAgainstOracle("after remove", remaining)

			for i := range remaining {
				if i%3 != 0 {
					continue
				}
				remaining[i].priority += 1000
				p := remaining[i]
				if _, err := eng.Reprioritise(engine.Prefix(p.value, p.bits), p.lbl, p.priority); err != nil {
					t.Fatalf("Reprioritise(%#x/%d): %v", p.value, p.bits, err)
				}
			}
			checkAgainstOracle("after reprioritise", remaining)

			for _, p := range remaining {
				if _, err := eng.Remove(engine.Prefix(p.value, p.bits), p.lbl); err != nil {
					t.Fatalf("Remove(%#x/%d): %v", p.value, p.bits, err)
				}
			}
			for i := 0; i < 100; i++ {
				key := uint32(rng.Intn(1 << 16))
				if got, _ := eng.Lookup(key); got.Len() != 0 {
					t.Fatalf("after drain: Lookup(%#x) returned %v, want empty", key, got.Labels())
				}
			}
			if fp := eng.Footprint(); fp.LabelListBits != 0 {
				t.Errorf("after drain: label list footprint = %d bits, want 0", fp.LabelListBits)
			}
		})
	}
}

// TestIPEngineCostModels checks that every IP engine publishes a sane cost
// model.
func TestIPEngineCostModels(t *testing.T) {
	for _, name := range engine.IPEngineNames() {
		eng, err := engine.New(name, engine.Spec{KeyBits: 16, LabelBits: 13})
		if err != nil {
			t.Fatalf("New(%s): %v", name, err)
		}
		cost := eng.Cost()
		if cost.LookupCycles < 1 || cost.InitiationInterval < 1 || cost.WorstCaseAccesses < 1 {
			t.Errorf("%s: implausible cost model %+v", name, cost)
		}
		if cost.InitiationInterval > cost.LookupCycles {
			t.Errorf("%s: initiation interval %d exceeds latency %d", name, cost.InitiationInterval, cost.LookupCycles)
		}
	}
}

// TestRemoveMissingFails checks that removing an absent pair errors on every
// IP engine.
func TestRemoveMissingFails(t *testing.T) {
	for _, name := range engine.IPEngineNames() {
		eng, err := engine.New(name, engine.Spec{KeyBits: 16, LabelBits: 13})
		if err != nil {
			t.Fatalf("New(%s): %v", name, err)
		}
		if _, err := eng.Remove(engine.Prefix(0x1200, 8), 3); err == nil {
			t.Errorf("%s: removing an absent prefix should fail", name)
		}
	}
}

func TestRegistry(t *testing.T) {
	if err := engine.Register(engine.Definition{Name: "", Factory: nil}); err == nil {
		t.Error("registering an empty name should fail")
	}
	if err := engine.Register(engine.Definition{Name: "x-no-factory"}); err == nil {
		t.Error("registering without a factory should fail")
	}
	if err := engine.Register(engine.Definition{
		Name:    "mbt",
		Factory: func(engine.Spec) (engine.FieldEngine, error) { return nil, nil },
	}); err == nil {
		t.Error("duplicate registration should fail")
	}
	if _, err := engine.New("no-such-engine", engine.Spec{}); err == nil {
		t.Error("building an unknown engine should fail")
	}
	for _, want := range []string{"mbt", "bst", "segtrie", "rfc", "portreg", "lut"} {
		if _, ok := engine.Get(want); !ok {
			t.Errorf("built-in engine %q not registered", want)
		}
	}
	ipNames := engine.IPEngineNames()
	for _, notIP := range []string{"portreg", "lut"} {
		for _, name := range ipNames {
			if name == notIP {
				t.Errorf("%q should not be listed as an IP engine", notIP)
			}
		}
	}
}

// TestKindRejection checks that engines reject condition kinds they cannot
// store, wrapping ErrUnsupportedKind.
func TestKindRejection(t *testing.T) {
	cases := []struct {
		engine string
		value  engine.Value
	}{
		{"mbt", engine.Range(1, 2)},
		{"bst", engine.Wildcard()},
		{"rfc", engine.Exact(7)},
		{"portreg", engine.Prefix(0x1200, 8)},
		{"lut", engine.Range(1, 2)},
	}
	for _, tc := range cases {
		eng, err := engine.New(tc.engine, engine.Spec{KeyBits: 16, LabelBits: 13})
		if tc.engine == "lut" {
			eng, err = engine.New(tc.engine, engine.Spec{KeyBits: 8, LabelBits: 2})
		}
		if err != nil {
			t.Fatalf("New(%s): %v", tc.engine, err)
		}
		if _, err := eng.Insert(tc.value, 1, 0); err == nil {
			t.Errorf("%s should reject %v", tc.engine, tc.value)
		}
	}
}

// TestPortAndProtocolEngines exercises the non-IP engines through the same
// interface.
func TestPortAndProtocolEngines(t *testing.T) {
	ports, err := engine.New("portreg", engine.Spec{KeyBits: 16, LabelBits: 7, Registers: 8})
	if err != nil {
		t.Fatalf("New(portreg): %v", err)
	}
	if _, err := ports.Insert(engine.Range(100, 200), 1, 5); err != nil {
		t.Fatalf("portreg Insert: %v", err)
	}
	if _, err := ports.Insert(engine.Exact(150), 2, 9); err != nil {
		t.Fatalf("portreg Insert exact: %v", err)
	}
	list, _ := ports.Lookup(150)
	if list.Len() != 2 {
		t.Fatalf("portreg Lookup(150) returned %d labels, want 2", list.Len())
	}
	// Specificity order: the exact match precedes the wider range.
	if hpml, _ := list.HPML(); hpml.Label != 2 {
		t.Errorf("portreg HPML = %v, want the exact-match label 2", hpml)
	}

	proto, err := engine.New("lut", engine.Spec{KeyBits: 8, LabelBits: 2})
	if err != nil {
		t.Fatalf("New(lut): %v", err)
	}
	if _, err := proto.Insert(engine.Exact(6), 1, 3); err != nil {
		t.Fatalf("lut Insert: %v", err)
	}
	if _, err := proto.Insert(engine.Wildcard(), 2, 1); err != nil {
		t.Fatalf("lut Insert wildcard: %v", err)
	}
	list, _ = proto.Lookup(6)
	if list.Len() != 2 {
		t.Fatalf("lut Lookup(6) returned %d labels, want 2", list.Len())
	}
	if hpml, _ := list.HPML(); hpml.Label != 1 {
		t.Errorf("lut HPML = %v, want the exact-match label 1", hpml)
	}
	list, _ = proto.Lookup(17)
	if list.Len() != 1 {
		t.Fatalf("lut Lookup(17) returned %d labels, want the wildcard only", list.Len())
	}
}

// prepared forces an engine's deferred builds (engine.Preparer) so its
// subsequent lookups are pure reads, mirroring what the classifier does
// before publishing a snapshot.
func prepared(e engine.FieldEngine) engine.FieldEngine {
	if p, ok := e.(engine.Preparer); ok {
		p.Prepare()
	}
	return e
}

// TestEngineCloneIndependence verifies the Cloner contract that the
// classifier's copy-on-write update path depends on: mutations of the
// original after cloning are never visible through the clone (nor the
// reverse). This is what lets readers
// keep traversing a published snapshot while a writer mutates its clone.
func TestEngineCloneIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, name := range engine.IPEngineNames() {
		t.Run(name, func(t *testing.T) {
			eng, err := engine.New(name, engine.Spec{KeyBits: 16, LabelBits: 13})
			if err != nil {
				t.Fatalf("New(%s): %v", name, err)
			}
			stored := randomPrefixes(rng, 48)
			for _, p := range stored {
				if _, err := eng.Insert(engine.Prefix(p.value, p.bits), p.lbl, p.priority); err != nil {
					t.Fatalf("Insert: %v", err)
				}
			}
			clone := prepared(eng.Clone())
			prepared(eng)

			keys := make([]uint32, 0, 64)
			for i := 0; i < 64; i++ {
				keys = append(keys, uint32(rng.Intn(1<<16)))
			}
			// The clone answers exactly like the original before divergence.
			for _, key := range keys {
				want := oracleLookup(stored, key)
				if got, _ := clone.Lookup(key); !sameLabels(got, want) {
					t.Fatalf("clone Lookup(%#x) = %v, want %v", key, got.Labels(), want)
				}
			}
			// Mutate the original: drop half the prefixes. The clone must
			// keep answering for the full stored set.
			for _, p := range stored[:len(stored)/2] {
				if _, err := eng.Remove(engine.Prefix(p.value, p.bits), p.lbl); err != nil {
					t.Fatalf("Remove: %v", err)
				}
			}
			prepared(eng)
			for _, key := range keys {
				want := oracleLookup(stored, key)
				if got, _ := clone.Lookup(key); !sameLabels(got, want) {
					t.Errorf("after mutating original: clone Lookup(%#x) = %v, want %v", key, got.Labels(), want)
				}
			}
			// And the reverse: mutating the clone must not resurrect the
			// removed prefixes in the original.
			remaining := stored[len(stored)/2:]
			for _, p := range remaining {
				if _, err := clone.Remove(engine.Prefix(p.value, p.bits), p.lbl); err != nil {
					t.Fatalf("clone Remove: %v", err)
				}
			}
			prepared(clone)
			for _, key := range keys {
				want := oracleLookup(remaining, key)
				if got, _ := eng.Lookup(key); !sameLabels(got, want) {
					t.Errorf("after mutating clone: original Lookup(%#x) = %v, want %v", key, got.Labels(), want)
				}
			}

			// A chain, as the classifier builds one: a clone of a clone, three
			// generations alive at once and sharing whatever Clone shares,
			// mutated in turn. Each must keep answering for its own contents.
			pool := randomPrefixes(rng, 96)
			for i := range pool { // keep labels and priorities distinct from stored's
				pool[i].lbl += 1000
				pool[i].priority += 1000
			}
			gens := []engine.FieldEngine{eng}
			contents := [][]storedPrefix{append([]storedPrefix(nil), remaining...)}
			mutate := func(g int, p storedPrefix) {
				if i := slices.Index(contents[g], p); i >= 0 {
					if _, err := gens[g].Remove(engine.Prefix(p.value, p.bits), p.lbl); err != nil {
						t.Fatalf("generation %d Remove: %v", g, err)
					}
					contents[g] = slices.Delete(contents[g], i, i+1)
					return
				}
				if _, err := gens[g].Insert(engine.Prefix(p.value, p.bits), p.lbl, p.priority); err != nil {
					t.Fatalf("generation %d Insert: %v", g, err)
				}
				contents[g] = append(contents[g], p)
			}
			for round, p := range pool {
				if round == 16 || round == 32 {
					last := len(gens) - 1
					gens = append(gens, gens[last].Clone())
					contents = append(contents, append([]storedPrefix(nil), contents[last]...))
				}
				// Toggle this prefix in one generation and an earlier one in
				// another, so inserts and removals interleave across the chain.
				mutate(round%len(gens), p)
				mutate((round+1)%len(gens), pool[round/2])
				for g := range gens {
					prepared(gens[g])
					for _, key := range keys[:16] {
						want := oracleLookup(contents[g], key)
						if got, _ := gens[g].Lookup(key); !sameLabels(got, want) {
							t.Fatalf("round %d: generation %d of %d Lookup(%#x) = %v, want %v", round, g, len(gens), key, got.Labels(), want)
						}
					}
				}
			}
		})
	}
}

// TestPortProtocolCloneIndependence covers the non-IP engines' Clone hooks.
func TestPortProtocolCloneIndependence(t *testing.T) {
	ports, err := engine.New("portreg", engine.Spec{KeyBits: 16, LabelBits: 7, Registers: 8})
	if err != nil {
		t.Fatalf("New(portreg): %v", err)
	}
	if _, err := ports.Insert(engine.Range(80, 80), 1, 0); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	portsClone := ports.Clone()
	if _, err := ports.Remove(engine.Range(80, 80), 1); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if got, _ := portsClone.Lookup(80); got.Len() != 1 {
		t.Errorf("portreg clone lost its entry after the original was mutated")
	}
	if got, _ := ports.Lookup(80); got.Len() != 0 {
		t.Errorf("portreg original still matches after Remove")
	}

	proto, err := engine.New("lut", engine.Spec{KeyBits: 8, LabelBits: 2})
	if err != nil {
		t.Fatalf("New(lut): %v", err)
	}
	if _, err := proto.Insert(engine.Exact(6), 1, 0); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	protoClone := proto.Clone()
	if _, err := proto.Remove(engine.Exact(6), 1); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if got, _ := protoClone.Lookup(6); got.Len() != 1 {
		t.Errorf("lut clone lost its entry after the original was mutated")
	}
}
