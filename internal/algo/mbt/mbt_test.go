package mbt

import (
	"math/rand"
	"testing"
	"testing/quick"

	"sdnpc/internal/label"
)

func TestConfigValidation(t *testing.T) {
	tests := []struct {
		name    string
		cfg     Config
		wantErr bool
	}{
		{name: "segment default", cfg: SegmentConfig(), wantErr: false},
		{name: "uniform 32/5", cfg: UniformConfig(32, 5), wantErr: false},
		{name: "uniform 32/4", cfg: UniformConfig(32, 4), wantErr: false},
		{name: "strides do not sum", cfg: Config{KeyBits: 16, Strides: []int{5, 5}, NodeEntryBits: 32, LabelEntryBits: 13}, wantErr: true},
		{name: "no strides", cfg: Config{KeyBits: 16, NodeEntryBits: 32, LabelEntryBits: 13}, wantErr: true},
		{name: "zero stride", cfg: Config{KeyBits: 16, Strides: []int{0, 16}, NodeEntryBits: 32, LabelEntryBits: 13}, wantErr: true},
		{name: "oversized stride", cfg: Config{KeyBits: 32, Strides: []int{17, 15}, NodeEntryBits: 32, LabelEntryBits: 13}, wantErr: true},
		{name: "zero key bits", cfg: Config{KeyBits: 0, Strides: []int{5}, NodeEntryBits: 32, LabelEntryBits: 13}, wantErr: true},
		{name: "too many key bits", cfg: Config{KeyBits: 33, Strides: []int{16, 17}, NodeEntryBits: 32, LabelEntryBits: 13}, wantErr: true},
		{name: "zero node width", cfg: Config{KeyBits: 16, Strides: []int{8, 8}, NodeEntryBits: 0, LabelEntryBits: 13}, wantErr: true},
		{name: "zero label width", cfg: Config{KeyBits: 16, Strides: []int{8, 8}, NodeEntryBits: 32, LabelEntryBits: 0}, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.cfg.Validate()
			if (err != nil) != tt.wantErr {
				t.Errorf("Validate() = %v, wantErr %v", err, tt.wantErr)
			}
			_, err = New(tt.cfg)
			if (err != nil) != tt.wantErr {
				t.Errorf("New() = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestSegmentConfigMatchesPaper(t *testing.T) {
	cfg := SegmentConfig()
	// §IV.C: three levels using 5-bit, 5-bit and 6-bit partitions.
	want := []int{5, 5, 6}
	if len(cfg.Strides) != len(want) {
		t.Fatalf("strides = %v, want %v", cfg.Strides, want)
	}
	for i := range want {
		if cfg.Strides[i] != want[i] {
			t.Fatalf("strides = %v, want %v", cfg.Strides, want)
		}
	}
	if cfg.KeyBits != 16 {
		t.Errorf("KeyBits = %d, want 16", cfg.KeyBits)
	}
	if cfg.Levels() != 3 {
		t.Errorf("Levels() = %d, want 3", cfg.Levels())
	}
}

func TestUniformConfigSplitsEvenly(t *testing.T) {
	tests := []struct {
		keyBits int
		levels  int
		want    []int
	}{
		{32, 5, []int{7, 7, 6, 6, 6}},
		{32, 4, []int{8, 8, 8, 8}},
		{16, 4, []int{4, 4, 4, 4}},
		{16, 5, []int{4, 3, 3, 3, 3}},
	}
	for _, tt := range tests {
		cfg := UniformConfig(tt.keyBits, tt.levels)
		if len(cfg.Strides) != len(tt.want) {
			t.Fatalf("UniformConfig(%d,%d) strides = %v, want %v", tt.keyBits, tt.levels, cfg.Strides, tt.want)
		}
		for i := range tt.want {
			if cfg.Strides[i] != tt.want[i] {
				t.Fatalf("UniformConfig(%d,%d) strides = %v, want %v", tt.keyBits, tt.levels, cfg.Strides, tt.want)
			}
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("UniformConfig(%d,%d) invalid: %v", tt.keyBits, tt.levels, err)
		}
	}
}

func TestMustNewPanicsOnInvalidConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew did not panic")
		}
	}()
	MustNew(Config{})
}

func TestInsertLookupBasic(t *testing.T) {
	e := MustNew(SegmentConfig())
	// Prefix 0xC0A8/16 (full segment), 0xC000/2-style shorter prefixes and
	// the wildcard.
	inserts := []struct {
		value    uint32
		bits     uint8
		lbl      label.Label
		priority int
	}{
		{0xC0A8, 16, 1, 10},
		{0xC000, 4, 2, 20},
		{0x0000, 0, 3, 99},
		{0x8000, 1, 4, 5},
	}
	for _, in := range inserts {
		if _, err := e.Insert(in.value, in.bits, in.lbl, in.priority); err != nil {
			t.Fatalf("Insert(%#x/%d): %v", in.value, in.bits, err)
		}
	}

	tests := []struct {
		name       string
		key        uint32
		wantLabels []label.Label // in priority order
	}{
		{name: "exact plus covering", key: 0xC0A8, wantLabels: []label.Label{4, 1, 2, 3}},
		{name: "only short prefixes", key: 0xC001, wantLabels: []label.Label{4, 2, 3}},
		{name: "only wildcard", key: 0x0001, wantLabels: []label.Label{3}},
		{name: "half-space prefix", key: 0xF000, wantLabels: []label.Label{4, 3}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			list, accesses := e.Lookup(tt.key)
			got := list.Labels()
			if len(got) != len(tt.wantLabels) {
				t.Fatalf("Lookup(%#x) labels = %v, want %v", tt.key, got, tt.wantLabels)
			}
			for i := range tt.wantLabels {
				if got[i] != tt.wantLabels[i] {
					t.Fatalf("Lookup(%#x) labels = %v, want %v", tt.key, got, tt.wantLabels)
				}
			}
			if accesses < 1 || accesses > e.WorstCaseAccesses() {
				t.Errorf("accesses = %d, want within [1,%d]", accesses, e.WorstCaseAccesses())
			}
		})
	}
}

func TestLookupAccessesBoundedByLevels(t *testing.T) {
	e := MustNew(SegmentConfig())
	if _, err := e.Insert(0x1234, 16, 1, 0); err != nil {
		t.Fatal(err)
	}
	_, accesses := e.Lookup(0x1234)
	if accesses != 3 {
		t.Errorf("full-length prefix lookup accesses = %d, want 3 (one per level)", accesses)
	}
	// A key that diverges at level 1 should stop early.
	_, accesses = e.Lookup(0xFFFF)
	if accesses != 1 {
		t.Errorf("diverging lookup accesses = %d, want 1", accesses)
	}
	if e.WorstCaseAccesses() != 3 {
		t.Errorf("WorstCaseAccesses() = %d, want 3", e.WorstCaseAccesses())
	}
}

func TestInsertRejectsBadPrefixes(t *testing.T) {
	e := MustNew(SegmentConfig())
	if _, err := e.Insert(0x1, 17, 1, 0); err == nil {
		t.Error("Insert with prefix longer than the key width should fail")
	}
	if _, err := e.Insert(0x10000, 16, 1, 0); err == nil {
		t.Error("Insert with value exceeding the key width should fail")
	}
	if _, err := e.Remove(0x1, 17, 1); err == nil {
		t.Error("Remove with bad prefix should fail")
	}
}

func TestRemove(t *testing.T) {
	e := MustNew(SegmentConfig())
	if _, err := e.Insert(0xC0A8, 16, 1, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Insert(0xC0A8, 12, 2, 20); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Remove(0xC0A8, 16, 1); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	list, _ := e.Lookup(0xC0A8)
	if len(list.Labels()) != 1 || list.Labels()[0] != 2 {
		t.Errorf("after remove labels = %v, want [2]", list.Labels())
	}
	// Removing an absent pair is an error.
	if _, err := e.Remove(0xC0A8, 16, 1); err == nil {
		t.Error("Remove of absent prefix should fail")
	}
	// Removing the remaining prefix leaves the trie logically empty and
	// prunes nodes back to the root.
	if _, err := e.Remove(0xC0A8, 12, 2); err != nil {
		t.Fatal(err)
	}
	list, _ = e.Lookup(0xC0A8)
	if list.Len() != 0 {
		t.Errorf("labels after removing everything = %v", list.Labels())
	}
	if e.NodeCount() != 1 {
		t.Errorf("NodeCount() = %d, want 1 (only the root remains)", e.NodeCount())
	}
	if e.LabelListBits() != 0 {
		t.Errorf("LabelListBits() = %d, want 0", e.LabelListBits())
	}
}

func TestMemoryAccountingGrowsAndShrinks(t *testing.T) {
	e := MustNew(SegmentConfig())
	baseline := e.MemoryBits()
	if baseline != 32*32 { // root node: 2^5 entries of 32 bits
		t.Errorf("empty trie MemoryBits() = %d, want %d", baseline, 32*32)
	}
	if _, err := e.Insert(0xABCD, 16, 1, 0); err != nil {
		t.Fatal(err)
	}
	grown := e.MemoryBits()
	// A full-length prefix allocates one level-2 and one level-3 node.
	wantGrown := baseline + 32*32 + 64*32
	if grown != wantGrown {
		t.Errorf("MemoryBits() after insert = %d, want %d", grown, wantGrown)
	}
	if e.LabelListBits() != 13 {
		t.Errorf("LabelListBits() = %d, want 13", e.LabelListBits())
	}
	if _, err := e.Remove(0xABCD, 16, 1); err != nil {
		t.Fatal(err)
	}
	if e.MemoryBits() != baseline {
		t.Errorf("MemoryBits() after remove = %d, want baseline %d", e.MemoryBits(), baseline)
	}
	levels := e.NodesPerLevel()
	if levels[0] != 1 || levels[1] != 0 || levels[2] != 0 {
		t.Errorf("NodesPerLevel() = %v, want [1 0 0]", levels)
	}
}

func TestShortPrefixExpansion(t *testing.T) {
	// A 3-bit prefix in a 5-bit first level covers 4 entries of the root
	// node; every address under it must match, every address outside must
	// not.
	e := MustNew(SegmentConfig())
	if _, err := e.Insert(0xE000, 3, 9, 0); err != nil { // 111x xxxx ...
		t.Fatal(err)
	}
	matching := []uint32{0xE000, 0xEFFF, 0xF123, 0xFFFF}
	for _, key := range matching {
		if list, _ := e.Lookup(key); list.Len() != 1 {
			t.Errorf("Lookup(%#x) = %v, want the /3 label", key, list.Labels())
		}
	}
	nonMatching := []uint32{0xDFFF, 0x0000, 0x7FFF}
	for _, key := range nonMatching {
		if list, _ := e.Lookup(key); list.Len() != 0 {
			t.Errorf("Lookup(%#x) = %v, want no labels", key, list.Labels())
		}
	}
}

func TestDuplicateInsertKeepsBetterPriority(t *testing.T) {
	e := MustNew(SegmentConfig())
	if _, err := e.Insert(0x1200, 8, 1, 50); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Insert(0x1200, 8, 1, 10); err != nil {
		t.Fatal(err)
	}
	list, _ := e.Lookup(0x1234)
	items := list.Items()
	if len(items) != 1 || items[0].Priority != 10 {
		t.Errorf("items = %+v, want single label with priority 10", items)
	}
	// An /8 prefix expands onto 4 level-2 entries (stride 5, 3 bits left), so
	// the label is stored four times; the duplicate insert must not add more.
	if e.LabelListBits() != 4*13 {
		t.Errorf("LabelListBits() = %d, want %d", e.LabelListBits(), 4*13)
	}
}

// referenceMatch reports whether the prefix matches the key, for comparison
// with trie lookups.
func referenceMatch(value uint32, bits uint8, key uint32, keyBits int) bool {
	if bits == 0 {
		return true
	}
	shift := uint(keyBits) - uint(bits)
	return value>>shift == key>>shift
}

func TestLookupAgainstReferenceProperty(t *testing.T) {
	// Insert a pseudo-random prefix population and verify every lookup
	// against a linear reference over all stored prefixes.
	cfg := SegmentConfig()
	e := MustNew(cfg)
	rng := rand.New(rand.NewSource(11))
	type pfx struct {
		value uint32
		bits  uint8
	}
	var stored []pfx
	for i := 0; i < 200; i++ {
		bits := uint8(rng.Intn(17))
		value := rng.Uint32() & 0xFFFF
		value = value >> (16 - uint(bits)) << (16 - uint(bits))
		if bits == 0 {
			value = 0
		}
		dup := false
		for _, p := range stored {
			if p.value == value && p.bits == bits {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		stored = append(stored, pfx{value, bits})
		if _, err := e.Insert(value, bits, label.Label(len(stored)-1), len(stored)-1); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2000; i++ {
		key := rng.Uint32() & 0xFFFF
		list, accesses := e.Lookup(key)
		if accesses > cfg.Levels() {
			t.Fatalf("accesses = %d exceeds level count", accesses)
		}
		got := make(map[label.Label]bool)
		for _, l := range list.Labels() {
			got[l] = true
		}
		for idx, p := range stored {
			want := referenceMatch(p.value, p.bits, key, 16)
			if got[label.Label(idx)] != want {
				t.Fatalf("key %#x prefix %#x/%d: trie=%v reference=%v", key, p.value, p.bits, got[label.Label(idx)], want)
			}
		}
	}
}

// TestReturnedAccessAndWriteCounts pins the cost accounting Lookup and Insert
// return — the single source every model counter above the engine sums: a
// key under a stored /16 walks all three levels, a key with no stored prefix
// stops at the root, and an insert writes at least one node entry.
func TestReturnedAccessAndWriteCounts(t *testing.T) {
	e := MustNew(SegmentConfig())
	writes, err := e.Insert(0x1234, 16, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if writes == 0 {
		t.Error("Insert returned 0 writes, want non-zero")
	}
	_, deep := e.Lookup(0x1234)
	_, shallow := e.Lookup(0xFFFF)
	if deep != 3 || shallow != 1 {
		t.Errorf("Lookup accesses = %d (stored key), %d (miss), want 3, 1", deep, shallow)
	}
}

func TestWide32BitTrie(t *testing.T) {
	// The Option 1 baseline uses a 5-level trie over full 32-bit addresses.
	e := MustNew(UniformConfig(32, 5))
	if _, err := e.Insert(0x0A000000, 8, 1, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Insert(0x0A0A0A0A, 32, 2, 1); err != nil {
		t.Fatal(err)
	}
	list, accesses := e.Lookup(0x0A0A0A0A)
	if list.Len() != 2 {
		t.Errorf("labels = %v, want 2 matches", list.Labels())
	}
	if accesses > 5 {
		t.Errorf("accesses = %d, want at most 5", accesses)
	}
	list, _ = e.Lookup(0x0B000000)
	if list.Len() != 0 {
		t.Errorf("labels = %v, want none", list.Labels())
	}
}

func TestInsertWritesCountProperty(t *testing.T) {
	// Property: inserting a prefix of length b into an empty segment trie
	// writes exactly the expanded entries plus any allocated child pointers.
	f := func(raw uint16, bitsRaw uint8) bool {
		bits := bitsRaw % 17
		value := uint32(raw)
		if bits < 16 {
			value = value >> (16 - uint(bits)) << (16 - uint(bits))
		}
		if bits == 0 {
			value = 0
		}
		e := MustNew(SegmentConfig())
		writes, err := e.Insert(value, bits, 1, 0)
		if err != nil {
			return false
		}
		strides := []int{5, 5, 6}
		consumed := 0
		level := 0
		for int(bits)-consumed > strides[level] {
			consumed += strides[level]
			level++
		}
		expanded := 1 << (strides[level] - (int(bits) - consumed))
		wantWrites := expanded + level // child-pointer writes on the way down
		return writes == wantWrites
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestCloneSharesUntilWritten pins the cost model of the copy-on-write
// update path: Clone allocates the same few objects whatever the trie holds,
// a write into a clone copies only the nodes on its path, and the accounting
// of the two engines diverges with their contents.
func TestCloneSharesUntilWritten(t *testing.T) {
	e := MustNew(SegmentConfig())
	for i := 0; i < 2000; i++ {
		if _, err := e.Insert(uint32(i*29)&0xFFFF, 16, label.Label(i), i); err != nil {
			t.Fatal(err)
		}
	}
	var c *Engine
	if allocs := testing.AllocsPerRun(10, func() { c = e.Clone() }); allocs > 4 {
		t.Errorf("Clone of a %d-node trie allocates %.0f objects, want at most 4", e.NodeCount(), allocs)
	}
	nodes, labelBits := e.NodeCount(), e.LabelListBits()
	// The first /16 insert into a fresh clone copies one node per level, each
	// with its entry array and the label lists it carries (two objects per
	// list, 32 + 32 + 64 entries at most) — not the trie.
	allocs := testing.AllocsPerRun(5, func() {
		c = e.Clone()
		if _, err := c.Insert(0xFFFF, 16, 5000, 0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 300 {
		t.Errorf("the first write into a clone allocates %.0f objects; the trie has %d nodes", allocs, nodes)
	}
	if e.NodeCount() != nodes || e.LabelListBits() != labelBits {
		t.Errorf("writing the clone moved the original's accounting: %d nodes, %d label bits", e.NodeCount(), e.LabelListBits())
	}
	if got, _ := e.Lookup(0xFFFF); got.Has(5000) {
		t.Error("the original answers with a label inserted into its clone")
	}
	if got, _ := c.Lookup(0xFFFF); !got.Has(5000) {
		t.Error("the clone lost the label inserted into it")
	}
}

// TestRemoveAbsentPairTouchesNothing: removing a pair that is not stored is
// refused before a shared node is copied, so the engine — a clone still
// sharing its whole trie here — allocates no node and is unchanged.
func TestRemoveAbsentPairTouchesNothing(t *testing.T) {
	e := MustNew(SegmentConfig())
	if _, err := e.Insert(0xAB00, 8, 1, 1); err != nil {
		t.Fatal(err)
	}
	c := e.Clone()
	absent := []struct {
		value uint32
		bits  uint8
		lbl   label.Label
	}{
		{0xAB00, 8, 2},  // stored prefix, other label
		{0xAB00, 12, 1}, // stored label, longer prefix
		{0x1200, 8, 1},  // no node on the path
	}
	for _, a := range absent {
		if writes, err := c.Remove(a.value, a.bits, a.lbl); err == nil || writes != 0 {
			t.Fatalf("Remove(%#x/%d, %d) = (%d, %v), want an error and no writes", a.value, a.bits, a.lbl, writes, err)
		}
	}
	// Every copy starts at the root: a shared root is a trie nothing copied.
	if c.root != e.root {
		t.Error("a refused Remove copied the shared root")
	}
	if got, _ := c.Lookup(0xAB12); !got.Has(1) || got.Len() != 1 {
		t.Errorf("after refused removals Lookup = %v, want [1]", got.Labels())
	}
}
