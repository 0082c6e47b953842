package bst

import (
	"math/rand"
	"testing"

	"sdnpc/internal/label"
)

func TestConfigValidation(t *testing.T) {
	tests := []struct {
		name    string
		cfg     Config
		wantErr bool
	}{
		{name: "segment default", cfg: SegmentConfig(), wantErr: false},
		{name: "32-bit keys", cfg: Config{KeyBits: 32, NodeBits: 64, LabelEntryBits: 13}, wantErr: false},
		{name: "zero key bits", cfg: Config{KeyBits: 0, NodeBits: 32, LabelEntryBits: 13}, wantErr: true},
		{name: "too wide", cfg: Config{KeyBits: 33, NodeBits: 32, LabelEntryBits: 13}, wantErr: true},
		{name: "zero node width", cfg: Config{KeyBits: 16, NodeBits: 0, LabelEntryBits: 13}, wantErr: true},
		{name: "zero label width", cfg: Config{KeyBits: 16, NodeBits: 32, LabelEntryBits: 0}, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := New(tt.cfg)
			if (err != nil) != tt.wantErr {
				t.Errorf("New() error = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
	defer func() {
		if recover() == nil {
			t.Error("MustNew with invalid config did not panic")
		}
	}()
	MustNew(Config{})
}

func TestInsertLookupBasic(t *testing.T) {
	e := MustNew(SegmentConfig())
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
		wantLabels []label.Label
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
			if accesses < 1 || accesses > WorstCaseAccesses {
				t.Errorf("accesses = %d, want within [1,%d]", accesses, WorstCaseAccesses)
			}
		})
	}
}

func TestLookupOnEmptyEngine(t *testing.T) {
	e := MustNew(SegmentConfig())
	list, accesses := e.Lookup(0x1234)
	if list.Len() != 0 {
		t.Errorf("empty engine returned labels %v", list.Labels())
	}
	if accesses != 1 {
		t.Errorf("empty engine accesses = %d, want 1", accesses)
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

func TestRemoveAndRebuild(t *testing.T) {
	e := MustNew(SegmentConfig())
	if _, err := e.Insert(0x8000, 1, 1, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Insert(0x8080, 16, 2, 1); err != nil {
		t.Fatal(err)
	}
	if e.PrefixCount() != 2 {
		t.Fatalf("PrefixCount() = %d, want 2", e.PrefixCount())
	}
	if _, err := e.Remove(0x8080, 16, 2); err != nil {
		t.Fatal(err)
	}
	list, _ := e.Lookup(0x8080)
	if list.Len() != 1 || list.Labels()[0] != 1 {
		t.Errorf("labels after remove = %v, want [1]", list.Labels())
	}
	if _, err := e.Remove(0x8080, 16, 2); err == nil {
		t.Error("Remove of absent prefix should fail")
	}
	if _, err := e.Remove(0x8000, 1, 1); err != nil {
		t.Fatal(err)
	}
	if e.IntervalCount() != 0 || e.MemoryBits() != 0 {
		t.Errorf("empty engine still reports %d intervals / %d bits", e.IntervalCount(), e.MemoryBits())
	}
}

func TestDuplicateInsert(t *testing.T) {
	e := MustNew(SegmentConfig())
	if _, err := e.Insert(0x1200, 8, 1, 50); err != nil {
		t.Fatal(err)
	}
	before := e.PrefixCount()
	// Re-inserting with a worse priority changes nothing.
	writes, err := e.Insert(0x1200, 8, 1, 60)
	if err != nil || writes != 0 {
		t.Errorf("worse-priority duplicate insert = (%d, %v), want no writes", writes, err)
	}
	// Re-inserting with a better priority triggers a rebuild.
	if _, err := e.Insert(0x1200, 8, 1, 10); err != nil {
		t.Fatal(err)
	}
	if e.PrefixCount() != before {
		t.Errorf("duplicate insert changed prefix count to %d", e.PrefixCount())
	}
	list, _ := e.Lookup(0x1234)
	if items := list.Items(); len(items) != 1 || items[0].Priority != 10 {
		t.Errorf("items = %+v, want single label with priority 10", items)
	}
}

func TestMemoryEfficiencyVersusExpansion(t *testing.T) {
	// The point of the BST option: node storage grows with the number of
	// prefixes, not with prefix expansion. 100 random /16 prefixes need at
	// most 2*100+1 interval nodes.
	e := MustNew(SegmentConfig())
	rng := rand.New(rand.NewSource(5))
	inserted := make(map[uint32]bool)
	for len(inserted) < 100 {
		v := rng.Uint32() & 0xFFFF
		if inserted[v] {
			continue
		}
		inserted[v] = true
		if _, err := e.Insert(v, 16, label.Label(len(inserted)), len(inserted)); err != nil {
			t.Fatal(err)
		}
	}
	if e.IntervalCount() > 2*100+1 {
		t.Errorf("IntervalCount() = %d, want at most 201", e.IntervalCount())
	}
	if e.MemoryBits() != e.IntervalCount()*32 {
		t.Errorf("MemoryBits() = %d, want %d", e.MemoryBits(), e.IntervalCount()*32)
	}
	if e.LabelListBits() == 0 {
		t.Error("LabelListBits() should be non-zero")
	}
}

func TestWorstCaseAccessesConstant(t *testing.T) {
	// Table VI: the BST configuration is provisioned for 16 accesses per
	// packet on a 16-bit segment.
	e := MustNew(SegmentConfig())
	if e.WorstCaseAccessesFor() != 16 {
		t.Errorf("WorstCaseAccessesFor() = %d, want 16", e.WorstCaseAccessesFor())
	}
	narrow := MustNew(Config{KeyBits: 8, NodeBits: 32, LabelEntryBits: 13})
	if narrow.WorstCaseAccessesFor() != 8 {
		t.Errorf("narrow WorstCaseAccessesFor() = %d, want 8", narrow.WorstCaseAccessesFor())
	}
}

// referenceMatch reports whether the prefix matches the key.
func referenceMatch(value uint32, bits uint8, key uint32) bool {
	if bits == 0 {
		return true
	}
	shift := 16 - uint(bits)
	return value>>shift == key>>shift
}

func TestLookupAgainstReferenceProperty(t *testing.T) {
	e := MustNew(SegmentConfig())
	rng := rand.New(rand.NewSource(23))
	type pfx struct {
		value uint32
		bits  uint8
	}
	var stored []pfx
	for i := 0; i < 150; i++ {
		bits := uint8(rng.Intn(17))
		value := rng.Uint32() & 0xFFFF
		if bits < 16 {
			value = value >> (16 - uint(bits)) << (16 - uint(bits))
		}
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
	maxAccesses := 0
	for i := 0; i < 2000; i++ {
		key := rng.Uint32() & 0xFFFF
		list, accesses := e.Lookup(key)
		if accesses > maxAccesses {
			maxAccesses = accesses
		}
		got := make(map[label.Label]bool)
		for _, l := range list.Labels() {
			got[l] = true
		}
		for idx, p := range stored {
			want := referenceMatch(p.value, p.bits, key)
			if got[label.Label(idx)] != want {
				t.Fatalf("key %#x prefix %#x/%d: bst=%v reference=%v", key, p.value, p.bits, got[label.Label(idx)], want)
			}
		}
	}
	if maxAccesses > WorstCaseAccesses {
		t.Errorf("observed %d accesses, exceeding the provisioned worst case %d", maxAccesses, WorstCaseAccesses)
	}
}

func TestLabelPriorityOrdering(t *testing.T) {
	e := MustNew(SegmentConfig())
	// Lower priority number = higher priority rule; the HPML must be first.
	if _, err := e.Insert(0x0000, 0, 7, 30); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Insert(0xAB00, 8, 8, 3); err != nil {
		t.Fatal(err)
	}
	list, _ := e.Lookup(0xAB12)
	hpml, ok := list.HPML()
	if !ok || hpml.Label != 8 || hpml.Priority != 3 {
		t.Errorf("HPML = %+v, want label 8 priority 3", hpml)
	}
}

// TestInsertReturnsRebuildWrites pins the update cost Insert returns: the
// structure is re-downloaded on every change, so each insert writes the whole
// interval array and the writes of successive inserts sum accordingly.
func TestInsertReturnsRebuildWrites(t *testing.T) {
	e := MustNew(SegmentConfig())
	total := 0
	for i, v := range []uint32{0x1234, 0x8000, 0xFF00} {
		writes, err := e.Insert(v, 16, label.Label(i+1), i)
		if err != nil {
			t.Fatal(err)
		}
		if writes != e.IntervalCount() {
			t.Errorf("insert %d returned %d writes, want the %d-interval array", i, writes, e.IntervalCount())
		}
		total += writes
	}
	if total <= e.IntervalCount() {
		t.Errorf("three inserts wrote %d words in total, want more than one %d-word download", total, e.IntervalCount())
	}
	if _, accesses := e.Lookup(0x1234); accesses < 2 {
		t.Errorf("lookup over %d intervals returned %d accesses, want a binary search of >= 2", e.IntervalCount(), accesses)
	}
}

func TestMemoryMuchSmallerThanMBTExpansion(t *testing.T) {
	// Sanity check of the paper's Table VI contrast: for the same prefix
	// population, BST node storage stays far below the MBT's expanded
	// level-3 node budget (the trie allocates 64-entry nodes, the BST only
	// boundary nodes).
	e := MustNew(SegmentConfig())
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 500; i++ {
		v := rng.Uint32() & 0xFFFF
		if _, err := e.Insert(v, 16, label.Label(i%4096), i); err != nil {
			t.Fatal(err)
		}
	}
	perPrefixBits := float64(e.MemoryBits()) / 500
	if perPrefixBits > 96 {
		t.Errorf("BST spends %.1f bits per /16 prefix, want well under an expanded trie node (2048 bits)", perPrefixBits)
	}
}
