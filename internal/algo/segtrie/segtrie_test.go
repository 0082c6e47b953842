package segtrie

import (
	"math/rand"
	"testing"
	"testing/quick"

	"sdnpc/internal/fivetuple"
	"sdnpc/internal/label"
)

func TestNewValidation(t *testing.T) {
	for _, levels := range []int{0, -1, 17} {
		if _, err := New(levels); err == nil {
			t.Errorf("New(%d) should fail", levels)
		}
	}
	for _, levels := range []int{1, 4, 5, 16} {
		e, err := New(levels)
		if err != nil {
			t.Errorf("New(%d): %v", levels, err)
			continue
		}
		if e.Levels() != levels || e.WorstCaseAccesses() != levels {
			t.Errorf("New(%d) levels = %d", levels, e.Levels())
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("MustNew(0) did not panic")
		}
	}()
	MustNew(0)
}

func TestRangeToSegments(t *testing.T) {
	tests := []struct {
		name string
		rng  fivetuple.PortRange
		want int // number of segments
	}{
		{name: "exact port", rng: fivetuple.ExactPort(80), want: 1},
		{name: "full wildcard", rng: fivetuple.WildcardPortRange(), want: 1},
		{name: "aligned power of two", rng: fivetuple.PortRange{Lo: 1024, Hi: 2047}, want: 1},
		{name: "well known low ports", rng: fivetuple.PortRange{Lo: 0, Hi: 1023}, want: 1},
		{name: "registered and dynamic", rng: fivetuple.PortRange{Lo: 1024, Hi: 65535}, want: 6},
		{name: "arbitrary range", rng: fivetuple.PortRange{Lo: 7810, Hi: 7820}, want: 4},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			segs := RangeToSegments(tt.rng)
			if len(segs) != tt.want {
				t.Errorf("RangeToSegments(%s) produced %d segments %v, want %d", tt.rng, len(segs), segs, tt.want)
			}
		})
	}
}

func TestRangeToSegmentsCoversExactlyProperty(t *testing.T) {
	// Property: the segments cover exactly the range — every port inside is
	// covered by exactly one segment, every port outside by none.
	f := func(a, b, probe uint16) bool {
		if a > b {
			a, b = b, a
		}
		rng := fivetuple.PortRange{Lo: a, Hi: b}
		segs := RangeToSegments(rng)
		covered := 0
		for _, s := range segs {
			size := uint32(1) << (PortBits - s.Bits)
			if uint32(probe) >= s.Value && uint32(probe) < s.Value+size {
				covered++
			}
		}
		if rng.Matches(probe) {
			return covered == 1
		}
		return covered == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestInsertLookupTableIVExample(t *testing.T) {
	e := MustNew(4)
	inserts := []struct {
		rng      fivetuple.PortRange
		lbl      label.Label
		priority int
	}{
		{fivetuple.PortRange{Lo: 0, Hi: 65355}, 0, 2},
		{fivetuple.ExactPort(7812), 1, 0},
		{fivetuple.PortRange{Lo: 7810, Hi: 7820}, 2, 1},
	}
	for _, in := range inserts {
		if _, err := e.Insert(in.rng, in.lbl, in.priority); err != nil {
			t.Fatalf("Insert(%s): %v", in.rng, err)
		}
	}
	list, accesses := e.Lookup(7812)
	if accesses < 1 || accesses > 4 {
		t.Errorf("accesses = %d, want within [1,4]", accesses)
	}
	got := list.Labels()
	want := []label.Label{1, 2, 0} // ordered by the rule priorities supplied
	if len(got) != len(want) {
		t.Fatalf("labels = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("labels = %v, want %v", got, want)
		}
	}
	if e.RangeCount() != 3 {
		t.Errorf("RangeCount() = %d, want 3", e.RangeCount())
	}
}

func TestRemove(t *testing.T) {
	e := MustNew(4)
	rng := fivetuple.PortRange{Lo: 1024, Hi: 65535}
	if _, err := e.Insert(rng, 5, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Remove(rng, 5); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if _, err := e.Remove(rng, 5); err == nil {
		t.Error("Remove of absent range should fail")
	}
	list, _ := e.Lookup(2000)
	if list.Len() != 0 {
		t.Errorf("labels after removal = %v", list.Labels())
	}
	if e.RangeCount() != 0 {
		t.Errorf("RangeCount() = %d, want 0", e.RangeCount())
	}
	if e.LabelListBits() != 0 {
		t.Errorf("LabelListBits() = %d, want 0", e.LabelListBits())
	}
}

func TestDuplicateInsertRefreshesPriority(t *testing.T) {
	e := MustNew(4)
	rng := fivetuple.ExactPort(443)
	if _, err := e.Insert(rng, 3, 40); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Insert(rng, 3, 4); err != nil {
		t.Fatal(err)
	}
	list, _ := e.Lookup(443)
	items := list.Items()
	if len(items) != 1 || items[0].Priority != 4 {
		t.Errorf("items = %+v, want single label at priority 4", items)
	}
	if e.RangeCount() != 1 {
		t.Errorf("RangeCount() = %d, want 1", e.RangeCount())
	}
}

func TestLookupAgainstReferenceProperty(t *testing.T) {
	e := MustNew(5)
	rng := rand.New(rand.NewSource(77))
	var ranges []fivetuple.PortRange
	for len(ranges) < 60 {
		lo := uint16(rng.Intn(65536))
		width := rng.Intn(5000)
		hi := lo
		if int(lo)+width <= int(fivetuple.MaxPort) {
			hi = lo + uint16(width)
		}
		r := fivetuple.PortRange{Lo: lo, Hi: hi}
		dup := false
		for _, existing := range ranges {
			if existing == r {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		ranges = append(ranges, r)
		if _, err := e.Insert(r, label.Label(len(ranges)-1), len(ranges)-1); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3000; i++ {
		port := uint16(rng.Intn(65536))
		list, accesses := e.Lookup(port)
		if accesses > 5 {
			t.Fatalf("accesses = %d exceeds level count", accesses)
		}
		got := make(map[label.Label]bool)
		for _, l := range list.Labels() {
			got[l] = true
		}
		for idx, r := range ranges {
			if got[label.Label(idx)] != r.Matches(port) {
				t.Fatalf("port %d range %s: trie=%v reference=%v", port, r, got[label.Label(idx)], r.Matches(port))
			}
		}
	}
}

func TestMemoryAccountingPositive(t *testing.T) {
	e := MustNew(4)
	writes, err := e.Insert(fivetuple.PortRange{Lo: 1024, Hi: 65535}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if e.MemoryBits() <= 0 || e.LabelListBits() <= 0 {
		t.Errorf("memory accounting = %d / %d, want positive", e.MemoryBits(), e.LabelListBits())
	}
	if writes == 0 {
		t.Error("Insert returned 0 writes, want non-zero")
	}
}
