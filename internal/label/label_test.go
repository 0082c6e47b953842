package label

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"
)

func TestDimensionWidths(t *testing.T) {
	// §IV.C.1: 13-bit IP segment labels, 7-bit port labels, 2-bit protocol
	// labels, concatenating to a 68-bit combination key.
	widths := map[Dimension]int{
		DimSrcIPHigh: 13,
		DimSrcIPLow:  13,
		DimDstIPHigh: 13,
		DimDstIPLow:  13,
		DimSrcPort:   7,
		DimDstPort:   7,
		DimProtocol:  2,
	}
	total := 0
	for d, want := range widths {
		if got := d.Bits(); got != want {
			t.Errorf("%s.Bits() = %d, want %d", d, got, want)
		}
		if got, want := d.Capacity(), 1<<want; got != want {
			t.Errorf("%s.Capacity() = %d, want %d", d, got, want)
		}
		total += want
	}
	if total != KeyBits || KeyBits != 68 {
		t.Errorf("total key width = %d (KeyBits %d), want 68", total, KeyBits)
	}
	if len(Dimensions()) != NumDimensions {
		t.Errorf("Dimensions() has %d entries, want %d", len(Dimensions()), NumDimensions)
	}
	if Dimension(99).Bits() != 0 {
		t.Error("unknown dimension should have zero width")
	}
	if Dimension(99).String() == "" || DimSrcIPHigh.String() != "srcIP.hi" {
		t.Error("dimension names are wrong")
	}
}

func TestTableAcquireRelease(t *testing.T) {
	tbl := NewTable[string](DimDstPort)
	// First acquire creates the label (Fig. 4: "new label creation").
	lblA, created, err := tbl.Acquire("80 : 80", 0)
	if err != nil || !created {
		t.Fatalf("first Acquire = (%v, %v, %v), want created", lblA, created, err)
	}
	// Second acquire of the same value only increments the counter.
	lblA2, created, err := tbl.Acquire("80 : 80", 0)
	if err != nil || created || lblA2 != lblA {
		t.Fatalf("second Acquire = (%v, %v, %v), want same label, not created", lblA2, created, err)
	}
	if got := tbl.RefCount("80 : 80"); got != 2 {
		t.Errorf("RefCount = %d, want 2", got)
	}
	// A different value gets a different label.
	lblB, created, err := tbl.Acquire("0 : 65535", 0)
	if err != nil || !created || lblB == lblA {
		t.Fatalf("Acquire of new value = (%v, %v, %v), want fresh label", lblB, created, err)
	}
	if tbl.Len() != 2 {
		t.Errorf("Len = %d, want 2", tbl.Len())
	}

	// Release once: the label must survive because the counter is still 1.
	_, removed, err := tbl.Release("80 : 80", 0)
	if err != nil || removed {
		t.Fatalf("first Release removed the label prematurely: removed=%v err=%v", removed, err)
	}
	// Release again: now the counter hits zero and the label is recycled.
	gone, removed, err := tbl.Release("80 : 80", 0)
	if err != nil || !removed || gone != lblA {
		t.Fatalf("second Release = (%v, %v, %v), want removal of %v", gone, removed, err, lblA)
	}
	if _, ok := tbl.Lookup("80 : 80"); ok {
		t.Error("released value still present in table")
	}
	// Releasing an unknown value is an error.
	if _, _, err := tbl.Release("80 : 80", 0); !errors.Is(err, ErrUnknownValue) {
		t.Errorf("Release of unknown value error = %v, want ErrUnknownValue", err)
	}
	// The freed label is reused by the next allocation, keeping labels dense.
	lblC, created, err := tbl.Acquire("443 : 443", 0)
	if err != nil || !created || lblC != lblA {
		t.Errorf("Acquire after release = %v, want recycled label %v", lblC, lblA)
	}
}

func TestTableCapacityExhaustion(t *testing.T) {
	tbl := NewTable[string](DimProtocol) // 2 bits => 4 labels
	for i := 0; i < DimProtocol.Capacity(); i++ {
		if _, _, err := tbl.Acquire(fmt.Sprintf("proto-%d", i), 0); err != nil {
			t.Fatalf("Acquire %d failed: %v", i, err)
		}
	}
	if _, _, err := tbl.Acquire("one-too-many", 0); !errors.Is(err, ErrTableFull) {
		t.Errorf("Acquire beyond capacity error = %v, want ErrTableFull", err)
	}
	// Acquiring an existing value must still work at capacity.
	if _, created, err := tbl.Acquire("proto-0", 0); err != nil || created {
		t.Errorf("re-Acquire at capacity = (created=%v, err=%v), want existing label", created, err)
	}
}

func TestTableValueAndValues(t *testing.T) {
	tbl := NewTable[string](DimSrcIPHigh)
	lbl, _, err := tbl.Acquire("10.0.0.0/8", 0)
	if err != nil {
		t.Fatal(err)
	}
	v, ok := tbl.Value(lbl)
	if !ok || v != "10.0.0.0/8" {
		t.Errorf("Value(%v) = (%q, %v)", lbl, v, ok)
	}
	if _, ok := tbl.Value(Label(999)); ok {
		t.Error("Value of unknown label should report !ok")
	}
	if got := len(tbl.Values()); got != 1 {
		t.Errorf("Values() length = %d, want 1", got)
	}
	if tbl.RefCount("unknown") != 0 {
		t.Error("RefCount of unknown value should be 0")
	}
	if tbl.Dimension() != DimSrcIPHigh {
		t.Error("Dimension() mismatch")
	}
	if tbl.StorageBits() != 13+16 {
		t.Errorf("StorageBits() = %d, want %d", tbl.StorageBits(), 13+16)
	}
}

func TestTableRefCountProperty(t *testing.T) {
	// Property: after n acquires and m<=n releases of the same value, the
	// refcount is n-m and the label survives iff n-m>0.
	f := func(nRaw, mRaw uint8) bool {
		n := int(nRaw%20) + 1
		m := int(mRaw) % (n + 1)
		tbl := NewTable[string](DimDstIPLow)
		for i := 0; i < n; i++ {
			if _, _, err := tbl.Acquire("value", 0); err != nil {
				return false
			}
		}
		for i := 0; i < m; i++ {
			if _, _, err := tbl.Release("value", 0); err != nil {
				return false
			}
		}
		_, present := tbl.Lookup("value")
		return tbl.RefCount("value") == n-m && present == (n-m > 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestTableTracksUsesByPriority covers the merged use list: the reference
// counter is the number of uses, Best is the smallest priority among them,
// and Release takes off exactly the use it names.
func TestTableTracksUsesByPriority(t *testing.T) {
	tbl := NewTable[string](DimSrcPort)
	if _, ok := tbl.Best("v"); ok {
		t.Fatal("Best of an unlabelled value should report !ok")
	}
	for _, p := range []int{30, 10, 20, 10} {
		if _, _, err := tbl.Acquire("v", p); err != nil {
			t.Fatal(err)
		}
	}
	if best, _ := tbl.Best("v"); best != 10 || tbl.RefCount("v") != 4 {
		t.Fatalf("Best = %d, RefCount = %d, want 10 and 4", best, tbl.RefCount("v"))
	}
	if _, _, err := tbl.Release("v", 15); !errors.Is(err, ErrUnknownValue) {
		t.Errorf("Release at a priority no rule uses = %v, want ErrUnknownValue", err)
	}
	// One of the two uses at the best priority goes: the best stays.
	if _, removed, err := tbl.Release("v", 10); err != nil || removed {
		t.Fatalf("Release = (removed=%v, %v)", removed, err)
	}
	if best, _ := tbl.Best("v"); best != 10 {
		t.Errorf("Best after releasing one of two best uses = %d, want 10", best)
	}
	if _, _, err := tbl.Release("v", 10); err != nil {
		t.Fatal(err)
	}
	if best, _ := tbl.Best("v"); best != 20 || tbl.RefCount("v") != 2 {
		t.Errorf("Best = %d, RefCount = %d, want 20 and 2", best, tbl.RefCount("v"))
	}
}

func TestBank(t *testing.T) {
	b := NewBank[string]()
	if b.TotalLabels() != 0 || b.StorageBits() != 0 {
		t.Error("new bank should be empty")
	}
	if _, _, err := b.Table(DimSrcPort).Acquire("0 : 65535", 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.Table(DimProtocol).Acquire("0x06/0xFF", 0); err != nil {
		t.Fatal(err)
	}
	if got := b.TotalLabels(); got != 2 {
		t.Errorf("TotalLabels() = %d, want 2", got)
	}
	if b.StorageBits() != (7+16)+(2+16) {
		t.Errorf("StorageBits() = %d", b.StorageBits())
	}
	assertPanics(t, "unknown dimension", func() { b.Table(Dimension(42)) })
}

func assertPanics(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", name)
		}
	}()
	fn()
}

func TestListOrderingAndHPML(t *testing.T) {
	l := NewList(
		PriorityLabel{Label: 5, Priority: 50},
		PriorityLabel{Label: 1, Priority: 10},
		PriorityLabel{Label: 3, Priority: 30},
	)
	if l.Len() != 3 {
		t.Fatalf("Len = %d, want 3", l.Len())
	}
	hpml, ok := l.HPML()
	if !ok || hpml.Label != 1 || hpml.Priority != 10 {
		t.Errorf("HPML = %+v, want label 1 priority 10", hpml)
	}
	got := l.Labels()
	want := []Label{1, 3, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Labels() = %v, want %v", got, want)
		}
	}
	// Inserting an existing label with a better priority moves it forward.
	l.Insert(PriorityLabel{Label: 5, Priority: 1})
	if hpml, _ := l.HPML(); hpml.Label != 5 {
		t.Errorf("after priority upgrade HPML = %+v, want label 5", hpml)
	}
	// Inserting with a worse priority leaves the list unchanged.
	l.Insert(PriorityLabel{Label: 5, Priority: 99})
	if hpml, _ := l.HPML(); hpml.Label != 5 || hpml.Priority != 1 {
		t.Errorf("worse-priority insert changed HPML: %+v", hpml)
	}
	if l.Len() != 3 {
		t.Errorf("duplicate insert changed length: %d", l.Len())
	}
}

func TestListEmptyAndRemove(t *testing.T) {
	var l List
	if _, ok := l.HPML(); ok {
		t.Error("empty list should have no HPML")
	}
	l.Insert(PriorityLabel{Label: 7, Priority: 3})
	l.Insert(PriorityLabel{Label: 8, Priority: 1})
	if !l.Remove(7) {
		t.Error("Remove of present label returned false")
	}
	if l.Remove(7) {
		t.Error("Remove of absent label returned true")
	}
	if l.Len() != 1 {
		t.Errorf("Len after remove = %d, want 1", l.Len())
	}
	if l.At(0).Label != 8 {
		t.Errorf("At(0) = %+v, want label 8", l.At(0))
	}
}

func TestListHas(t *testing.T) {
	l := NewList(PriorityLabel{Label: 3, Priority: 1}, PriorityLabel{Label: 9, Priority: 0})
	if !l.Has(3) || !l.Has(9) || l.Has(4) || (&List{}).Has(0) {
		t.Errorf("Has disagrees with the list %v", l.Labels())
	}
	if testing.AllocsPerRun(10, func() { l.Has(9) }) != 0 {
		t.Error("Has allocates")
	}
}

func TestListReprioritise(t *testing.T) {
	l := NewList(
		PriorityLabel{Label: 1, Priority: 10},
		PriorityLabel{Label: 2, Priority: 20},
	)
	if !l.Reprioritise(2, 5) {
		t.Fatal("Reprioritise of present label returned false")
	}
	if hpml, _ := l.HPML(); hpml.Label != 2 || hpml.Priority != 5 {
		t.Errorf("HPML after reprioritise = %+v", hpml)
	}
	if l.Reprioritise(99, 1) {
		t.Error("Reprioritise of absent label returned true")
	}
}

func TestListMergeAndClone(t *testing.T) {
	a := NewList(PriorityLabel{Label: 1, Priority: 10}, PriorityLabel{Label: 2, Priority: 20})
	b := NewList(PriorityLabel{Label: 2, Priority: 5}, PriorityLabel{Label: 3, Priority: 30})
	c := a.Clone()
	c.Merge(b)
	if c.Len() != 3 {
		t.Fatalf("merged length = %d, want 3", c.Len())
	}
	if hpml, _ := c.HPML(); hpml.Label != 2 || hpml.Priority != 5 {
		t.Errorf("merged HPML = %+v, want label 2 priority 5", hpml)
	}
	// The original is untouched.
	if a.Len() != 2 {
		t.Errorf("Merge mutated the clone source: %v", a.Items())
	}
	c.Merge(nil) // must be a no-op
	if c.Len() != 3 {
		t.Error("Merge(nil) changed the list")
	}
}

func TestListInsertKeepsSortedProperty(t *testing.T) {
	f := func(priorities []int16) bool {
		l := &List{}
		for i, p := range priorities {
			l.Insert(PriorityLabel{Label: Label(i), Priority: int(p)})
		}
		items := l.Items()
		for i := 1; i < len(items); i++ {
			if items[i-1].Priority > items[i].Priority {
				return false
			}
		}
		return l.Len() == len(priorities)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPackKeyRoundTrip(t *testing.T) {
	labels := [NumDimensions + 1]Label{
		DimSrcIPHigh: 0x1ABC,
		DimSrcIPLow:  0x0001,
		DimDstIPHigh: 0x1FFF,
		DimDstIPLow:  0,
		DimSrcPort:   0x7F,
		DimDstPort:   0x01,
		DimProtocol:  0x3,
	}
	key := PackKeyDims(&labels)
	back := key.Unpack()
	for _, d := range Dimensions() {
		if back[d] != labels[d] {
			t.Errorf("Unpack()[%s] = %v, want %v", d, back[d], labels[d])
		}
	}
	if got := KeyFromParts(key.Hi(), key.Lo()); got != key {
		t.Errorf("KeyFromParts(Hi, Lo) = %s, want %s", got, key)
	}
	if len(key.String()) != 17 {
		t.Errorf("String() = %q, want 17 hex digits", key.String())
	}
}

func TestPackKeyRoundTripProperty(t *testing.T) {
	f := func(a, b, c, d uint16, e, g uint8, p uint8) bool {
		labels := [NumDimensions + 1]Label{
			DimSrcIPHigh: Label(a % 8192),
			DimSrcIPLow:  Label(b % 8192),
			DimDstIPHigh: Label(c % 8192),
			DimDstIPLow:  Label(d % 8192),
			DimSrcPort:   Label(e % 128),
			DimDstPort:   Label(g % 128),
			DimProtocol:  Label(p % 4),
		}
		back := PackKeyDims(&labels).Unpack()
		for _, dim := range Dimensions() {
			if back[dim] != labels[dim] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKeyPrefixMatchesAppend(t *testing.T) {
	labels := [NumDimensions + 1]Label{
		DimSrcIPHigh: 0x1ABC, DimSrcIPLow: 0x0F0F, DimDstIPHigh: 0x1FFF, DimDstIPLow: 0x0001,
		DimSrcPort: 0x55, DimDstPort: 0x7F, DimProtocol: 0x2,
	}
	full := PackKeyDims(&labels)
	var partial CombinationKey
	if got := full.Prefix(0); got != partial {
		t.Errorf("Prefix(0) = %s, want the zero key", got)
	}
	for i, d := range Dimensions() {
		partial = partial.Append(d, labels[d])
		if got := full.Prefix(i + 1); got != partial {
			t.Errorf("Prefix(%d) = %s, want %s (the first %d labels appended)", i+1, got, partial, i+1)
		}
	}
	if partial != full {
		t.Errorf("appending every label gives %s, PackKeyDims %s", partial, full)
	}
}

func TestPackKeyDistinctInputsDistinctKeys(t *testing.T) {
	base := [NumDimensions + 1]Label{
		DimSrcIPHigh: 1, DimSrcIPLow: 2, DimDstIPHigh: 3, DimDstIPLow: 4,
		DimSrcPort: 5, DimDstPort: 6, DimProtocol: 1,
	}
	k1 := PackKeyDims(&base)
	for _, d := range Dimensions() {
		modified := base
		modified[d] = base[d] + 1
		if PackKeyDims(&modified) == k1 {
			t.Errorf("changing dimension %s did not change the key", d)
		}
	}
}

func TestPackKeyBytesAndUint64(t *testing.T) {
	labels := [NumDimensions + 1]Label{
		DimSrcIPHigh: 0x1FFF, DimSrcIPLow: 0x1FFF, DimDstIPHigh: 0x1FFF,
		DimDstIPLow: 0x1FFF, DimSrcPort: 0x7F, DimDstPort: 0x7F, DimProtocol: 0x3,
	}
	key := PackKeyDims(&labels)
	bytes := key.Bytes()
	// All 68 bits set: top byte is 0x0F, the rest 0xFF.
	if bytes[0] != 0x0F {
		t.Errorf("Bytes()[0] = %#x, want 0x0F", bytes[0])
	}
	for i := 1; i < len(bytes); i++ {
		if bytes[i] != 0xFF {
			t.Errorf("Bytes()[%d] = %#x, want 0xFF", i, bytes[i])
		}
	}
	if key.Uint64() == 0 {
		t.Error("Uint64() of a non-zero key is zero")
	}
}

func TestPackKeyPanicsOnOversizedLabel(t *testing.T) {
	assertPanics(t, "oversized label", func() {
		PackKeyDims(&[NumDimensions + 1]Label{DimProtocol: 4})
	})
}
