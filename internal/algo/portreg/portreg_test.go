package portreg

import (
	"errors"
	"testing"

	"sdnpc/internal/fivetuple"
	"sdnpc/internal/label"
)

func TestNewValidation(t *testing.T) {
	tests := []struct {
		name      string
		capacity  int
		labelBits int
		wantErr   bool
	}{
		{name: "default geometry", capacity: 128, labelBits: 7, wantErr: false},
		{name: "zero capacity", capacity: 0, labelBits: 7, wantErr: true},
		{name: "zero label bits", capacity: 8, labelBits: 0, wantErr: true},
		{name: "label bits too wide", capacity: 8, labelBits: 17, wantErr: true},
		{name: "capacity exceeds label space", capacity: 200, labelBits: 7, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := New(tt.capacity, tt.labelBits)
			if (err != nil) != tt.wantErr {
				t.Errorf("New(%d, %d) error = %v, wantErr %v", tt.capacity, tt.labelBits, err, tt.wantErr)
			}
		})
	}
	defer func() {
		if recover() == nil {
			t.Error("MustNew with invalid geometry did not panic")
		}
	}()
	MustNew(0, 7)
}

func TestDefaultGeometry(t *testing.T) {
	b := Default()
	if b.Capacity() != 128 {
		t.Errorf("Capacity() = %d, want 128", b.Capacity())
	}
	if b.RegisterBits() != 16+16+7 {
		t.Errorf("RegisterBits() = %d, want 39", b.RegisterBits())
	}
	if b.MemoryBits() != 128*39 {
		t.Errorf("MemoryBits() = %d, want %d", b.MemoryBits(), 128*39)
	}
}

// tableIVBank builds the three-rule example of Table IV:
//
//	[65355 - 0]     label A  (wide range)
//	[7812 - 7812]   label B  (exact match)
//	[7820 - 7810]   label C  (tight range)
func tableIVBank(t *testing.T) (*Bank, label.Label, label.Label, label.Label) {
	t.Helper()
	b := Default()
	const (
		labelA label.Label = 0
		labelB label.Label = 1
		labelC label.Label = 2
	)
	inserts := []struct {
		rng fivetuple.PortRange
		lbl label.Label
	}{
		{fivetuple.PortRange{Lo: 0, Hi: 65355}, labelA},
		{fivetuple.PortRange{Lo: 7812, Hi: 7812}, labelB},
		{fivetuple.PortRange{Lo: 7810, Hi: 7820}, labelC},
	}
	for i, in := range inserts {
		if _, err := b.Insert(in.rng, in.lbl, i); err != nil {
			t.Fatalf("Insert(%s): %v", in.rng, err)
		}
	}
	return b, labelA, labelB, labelC
}

func TestTableIVOrdering(t *testing.T) {
	// §IV.C.1: "for an input packet with a destination port field equal to
	// 7812, the labels of Port lookup will be ordered as B, C and A."
	b, labelA, labelB, labelC := tableIVBank(t)
	list, accesses := b.Lookup(7812)
	if accesses != 1 {
		t.Errorf("accesses = %d, want 1 (parallel register compare)", accesses)
	}
	got := list.Labels()
	want := []label.Label{labelB, labelC, labelA}
	if len(got) != len(want) {
		t.Fatalf("labels = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("labels = %v, want %v (Table IV order)", got, want)
		}
	}
}

func TestTableIVOtherPorts(t *testing.T) {
	b, labelA, _, labelC := tableIVBank(t)
	tests := []struct {
		name string
		port uint16
		want []label.Label
	}{
		{name: "inside tight range only", port: 7815, want: []label.Label{labelC, labelA}},
		{name: "outside both ranges", port: 9000, want: []label.Label{labelA}},
		{name: "outside the wide range too", port: 65400, want: nil},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			list, _ := b.Lookup(tt.port)
			got := list.Labels()
			if len(got) != len(tt.want) {
				t.Fatalf("labels = %v, want %v", got, tt.want)
			}
			for i := range tt.want {
				if got[i] != tt.want[i] {
					t.Fatalf("labels = %v, want %v", got, tt.want)
				}
			}
		})
	}
}

func TestInsertDuplicateAndCapacity(t *testing.T) {
	b := MustNew(2, 7)
	if _, err := b.Insert(fivetuple.ExactPort(80), 1, 10); err != nil {
		t.Fatal(err)
	}
	// Re-inserting the same range with a better priority costs one write but
	// no register.
	writes, err := b.Insert(fivetuple.ExactPort(80), 1, 5)
	if err != nil || writes != 1 {
		t.Errorf("duplicate insert = (%d, %v)", writes, err)
	}
	// Re-inserting identically is free.
	writes, err = b.Insert(fivetuple.ExactPort(80), 1, 7)
	if err != nil || writes != 0 {
		t.Errorf("no-op insert = (%d, %v)", writes, err)
	}
	if _, err := b.Insert(fivetuple.ExactPort(443), 2, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Insert(fivetuple.ExactPort(22), 3, 2); !errors.Is(err, ErrBankFull) {
		t.Errorf("insert beyond capacity error = %v, want ErrBankFull", err)
	}
	if b.Len() != 2 {
		t.Errorf("Len() = %d, want 2", b.Len())
	}
}

func TestRemove(t *testing.T) {
	b := Default()
	if _, err := b.Insert(fivetuple.ExactPort(80), 1, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Remove(fivetuple.ExactPort(80)); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if _, err := b.Remove(fivetuple.ExactPort(80)); err == nil {
		t.Error("Remove of absent range should fail")
	}
	list, _ := b.Lookup(80)
	if list.Len() != 0 {
		t.Errorf("labels after removal = %v", list.Labels())
	}
	if len(b.Ranges()) != 0 {
		t.Errorf("Ranges() = %v, want empty", b.Ranges())
	}
}

func TestWildcardOrderingLast(t *testing.T) {
	b := Default()
	if _, err := b.Insert(fivetuple.WildcardPortRange(), 9, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Insert(fivetuple.PortRange{Lo: 1024, Hi: 65535}, 8, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Insert(fivetuple.ExactPort(8080), 7, 2); err != nil {
		t.Fatal(err)
	}
	list, _ := b.Lookup(8080)
	got := list.Labels()
	want := []label.Label{7, 8, 9} // exact, tighter range, wildcard
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("labels = %v, want %v", got, want)
		}
	}
}

// TestReturnedWriteAndAccessCounts pins the costs the bank returns: a new
// range costs one register write, and a lookup reads the whole register file
// in one access whether or not a register matches.
func TestReturnedWriteAndAccessCounts(t *testing.T) {
	b := Default()
	writes, err := b.Insert(fivetuple.ExactPort(53), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if writes != 1 {
		t.Errorf("Insert returned %d writes, want 1", writes)
	}
	_, hit := b.Lookup(53)
	_, miss := b.Lookup(54)
	if hit+miss != 2 {
		t.Errorf("accesses = %d (hit) + %d (miss), want 1 + 1", hit, miss)
	}
	if LookupCycles != 2 {
		t.Errorf("LookupCycles = %d, want 2 (§V.B)", LookupCycles)
	}
}
