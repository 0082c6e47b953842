package rfc

import (
	"testing"

	"sdnpc/internal/label"
)

func TestSegmentTableBasics(t *testing.T) {
	st, err := NewSegmentTable(16, 13)
	if err != nil {
		t.Fatalf("NewSegmentTable: %v", err)
	}
	if _, err := NewSegmentTable(0, 13); err == nil {
		t.Error("zero key width should fail")
	}
	if _, err := NewSegmentTable(17, 13); err == nil {
		t.Error("oversized key width should fail")
	}
	if _, err := st.Insert(0x1F000, 8, 1, 0); err == nil {
		t.Error("out-of-domain prefix value should fail")
	}
	if _, err := st.Insert(0, 17, 1, 0); err == nil {
		t.Error("over-long prefix should fail")
	}

	// 0x12xx/8 with label 1, 0x1234/16 with label 2, default /0 with label 3.
	if _, err := st.Insert(0x1200, 8, 1, 5); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if _, err := st.Insert(0x1234, 16, 2, 1); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if _, err := st.Insert(0, 0, 3, 9); err != nil {
		t.Fatalf("Insert: %v", err)
	}

	list, accesses := st.Lookup(0x1234)
	if accesses != 1 {
		t.Errorf("Lookup accesses = %d, want 1 (direct index)", accesses)
	}
	if got := list.Labels(); len(got) != 3 || got[0] != 2 || got[1] != 1 || got[2] != 3 {
		t.Errorf("Lookup(0x1234) labels = %v, want [2 1 3] in priority order", got)
	}
	list, _ = st.Lookup(0x12FF)
	if got := list.Labels(); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("Lookup(0x12FF) labels = %v, want [1 3]", got)
	}
	list, _ = st.Lookup(0xFFFF)
	if got := list.Labels(); len(got) != 1 || got[0] != 3 {
		t.Errorf("Lookup(0xFFFF) labels = %v, want [3]", got)
	}

	if st.ClassCount() != 3 {
		t.Errorf("ClassCount = %d, want 3 equivalence classes", st.ClassCount())
	}
	if st.PrefixCount() != 3 {
		t.Errorf("PrefixCount = %d, want 3", st.PrefixCount())
	}
	if st.MemoryBits() != (1<<16)*2 {
		t.Errorf("MemoryBits = %d, want %d (64K entries of 2 bits)", st.MemoryBits(), (1<<16)*2)
	}

	// Removing the host route merges its class away.
	if _, err := st.Remove(0x1234, 16, 2); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if _, err := st.Remove(0x1234, 16, 2); err == nil {
		t.Error("double remove should fail")
	}
	list, _ = st.Lookup(0x1234)
	if got := list.Labels(); len(got) != 2 || got[0] != 1 {
		t.Errorf("after remove: Lookup(0x1234) labels = %v, want [1 3]", got)
	}
	if st.ClassCount() != 2 {
		t.Errorf("after remove: ClassCount = %d, want 2", st.ClassCount())
	}
}

func TestSegmentTablePriorityRefresh(t *testing.T) {
	st, err := NewSegmentTable(16, 13)
	if err != nil {
		t.Fatalf("NewSegmentTable: %v", err)
	}
	if _, err := st.Insert(0x1200, 8, 1, 7); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if _, err := st.Insert(0x1200, 8, 2, 3); err != nil {
		t.Fatalf("Insert second label: %v", err)
	}
	// Refreshing with a better priority reorders the class list; a worse one
	// is ignored.
	if writes, err := st.Insert(0x1200, 8, 1, 1); err != nil || writes == 0 {
		t.Fatalf("refresh with better priority: writes=%d err=%v", writes, err)
	}
	if writes, err := st.Insert(0x1200, 8, 1, 99); err != nil || writes != 0 {
		t.Fatalf("refresh with worse priority should be free: writes=%d err=%v", writes, err)
	}
	list, _ := st.Lookup(0x1280)
	if hpml, ok := list.HPML(); !ok || hpml.Label != label.Label(1) || hpml.Priority != 1 {
		t.Errorf("HPML = %v, want label 1 at priority 1", hpml)
	}
}

func TestSegmentTableEmptyAndUpdateCost(t *testing.T) {
	st, err := NewSegmentTable(8, 7)
	if err != nil {
		t.Fatalf("NewSegmentTable: %v", err)
	}
	list, accesses := st.Lookup(42)
	if list.Len() != 0 || accesses != 1 {
		t.Errorf("empty Lookup = %d labels, %d accesses", list.Len(), accesses)
	}
	if st.MemoryBits() != 0 || st.LabelListBits() != 0 {
		t.Errorf("empty table reports %d node bits, %d label bits", st.MemoryBits(), st.LabelListBits())
	}
	// An update re-downloads the whole direct-indexed table: 2^8 entries.
	writes, err := st.Insert(0x40, 2, 1, 0)
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if writes != 256 {
		t.Errorf("Insert returned %d writes, want the 256-entry table", writes)
	}
	if list, accesses := st.Lookup(0x41); list.Len() != 1 || accesses != 1 {
		t.Errorf("Lookup after insert = %d labels, %d accesses, want 1, 1", list.Len(), accesses)
	}
}
