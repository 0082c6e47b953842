package lut

import (
	"testing"

	"sdnpc/internal/label"
)

func TestNewValidation(t *testing.T) {
	for _, bits := range []int{0, -3, 17} {
		if _, err := New(bits); err == nil {
			t.Errorf("New(%d) should fail", bits)
		}
	}
	if _, err := New(2); err != nil {
		t.Errorf("New(2): %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Error("MustNew(0) did not panic")
		}
	}()
	MustNew(0)
}

func TestExactAndWildcardLookup(t *testing.T) {
	tbl := MustNew(2)
	tbl.InsertExact(6, 1, 5)  // TCP
	tbl.InsertExact(17, 2, 9) // UDP
	tbl.InsertWildcard(3, 20) // the wildcard protocol rule

	tests := []struct {
		name       string
		proto      uint8
		wantLabels []label.Label
	}{
		{name: "tcp exact then wildcard", proto: 6, wantLabels: []label.Label{1, 3}},
		{name: "udp exact then wildcard", proto: 17, wantLabels: []label.Label{2, 3}},
		{name: "unknown protocol wildcard only", proto: 47, wantLabels: []label.Label{3}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			list, accesses := tbl.Lookup(tt.proto)
			if accesses != 1 {
				t.Errorf("accesses = %d, want 1 (single-cycle lookup, §V.B)", accesses)
			}
			got := list.Labels()
			if len(got) != len(tt.wantLabels) {
				t.Fatalf("labels = %v, want %v", got, tt.wantLabels)
			}
			for i := range tt.wantLabels {
				if got[i] != tt.wantLabels[i] {
					t.Fatalf("labels = %v, want %v", got, tt.wantLabels)
				}
			}
		})
	}
}

func TestExactPrecedesWildcardRegardlessOfRulePriority(t *testing.T) {
	// §IV.C.1: the exact protocol match determines the priority label even
	// when the wildcard rule has a better rule priority.
	tbl := MustNew(2)
	tbl.InsertWildcard(3, 0) // highest-priority rule uses the wildcard
	tbl.InsertExact(6, 1, 50)
	list, _ := tbl.Lookup(6)
	if got := list.Labels(); len(got) != 2 || got[0] != 1 {
		t.Errorf("labels = %v, want exact label 1 first", got)
	}
}

func TestLookupOnEmptyTable(t *testing.T) {
	tbl := MustNew(2)
	list, _ := tbl.Lookup(6)
	if list.Len() != 0 {
		t.Errorf("empty table returned labels %v", list.Labels())
	}
}

func TestInsertIdempotenceAndWrites(t *testing.T) {
	tbl := MustNew(2)
	if w := tbl.InsertExact(6, 1, 5); w != 1 {
		t.Errorf("first insert writes = %d, want 1", w)
	}
	// Same label, worse priority: nothing to write.
	if w := tbl.InsertExact(6, 1, 9); w != 0 {
		t.Errorf("no-op insert writes = %d, want 0", w)
	}
	// Same label, better priority: one write.
	if w := tbl.InsertExact(6, 1, 2); w != 1 {
		t.Errorf("priority-improving insert writes = %d, want 1", w)
	}
	if w := tbl.InsertWildcard(3, 7); w != 1 {
		t.Errorf("wildcard insert writes = %d, want 1", w)
	}
	if w := tbl.InsertWildcard(3, 9); w != 0 {
		t.Errorf("no-op wildcard insert writes = %d, want 0", w)
	}
}

func TestRemove(t *testing.T) {
	tbl := MustNew(2)
	tbl.InsertExact(6, 1, 5)
	tbl.InsertWildcard(3, 9)
	if tbl.EntryCount() != 2 {
		t.Fatalf("EntryCount() = %d, want 2", tbl.EntryCount())
	}
	if _, err := tbl.RemoveExact(6); err != nil {
		t.Fatalf("RemoveExact: %v", err)
	}
	if _, err := tbl.RemoveExact(6); err == nil {
		t.Error("RemoveExact of absent entry should fail")
	}
	if _, err := tbl.RemoveWildcard(); err != nil {
		t.Fatalf("RemoveWildcard: %v", err)
	}
	if _, err := tbl.RemoveWildcard(); err == nil {
		t.Error("RemoveWildcard of absent entry should fail")
	}
	if tbl.EntryCount() != 0 {
		t.Errorf("EntryCount() = %d, want 0", tbl.EntryCount())
	}
	list, _ := tbl.Lookup(6)
	if list.Len() != 0 {
		t.Errorf("labels after removal = %v", list.Labels())
	}
}

func TestMemoryBits(t *testing.T) {
	tbl := MustNew(2)
	// 256 exact entries plus the wildcard register, each label+valid.
	if got, want := tbl.MemoryBits(), 257*3; got != want {
		t.Errorf("MemoryBits() = %d, want %d", got, want)
	}
}

// TestLookupCostsOneAccessHitOrMiss pins the returned access count on both
// sides of the table: a stored protocol and an absent one each read the table
// once, which is what the single-cycle stage model charges.
func TestLookupCostsOneAccessHitOrMiss(t *testing.T) {
	tbl := MustNew(2)
	tbl.InsertExact(6, 1, 0)
	_, hit := tbl.Lookup(6)
	_, miss := tbl.Lookup(17)
	if hit+miss != 2 {
		t.Errorf("accesses = %d (hit) + %d (miss), want 1 + 1", hit, miss)
	}
	if LookupCycles != 1 {
		t.Errorf("LookupCycles = %d, want 1", LookupCycles)
	}
}
