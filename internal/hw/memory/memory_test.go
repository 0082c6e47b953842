package memory

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestBlockGeometry(t *testing.T) {
	b := NewBlock("mbt-l1", 32, 64)
	if b.Name() != "mbt-l1" || b.WordBits() != 32 || b.Depth() != 64 {
		t.Errorf("geometry accessors wrong: %s %d %d", b.Name(), b.WordBits(), b.Depth())
	}
	if got, want := b.CapacityBits(), 32*64; got != want {
		t.Errorf("CapacityBits() = %d, want %d", got, want)
	}
}

func TestNewBlockPanicsOnBadGeometry(t *testing.T) {
	tests := []struct {
		name     string
		wordBits int
		depth    int
	}{
		{name: "zero width", wordBits: 0, depth: 8},
		{name: "width too wide", wordBits: 65, depth: 8},
		{name: "zero depth", wordBits: 8, depth: 0},
		{name: "negative depth", wordBits: 8, depth: -1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("NewBlock did not panic")
				}
			}()
			NewBlock("bad", tt.wordBits, tt.depth)
		})
	}
}

func TestBlockReadWrite(t *testing.T) {
	b := NewBlock("test", 16, 8)
	if _, ok := b.Read(3); ok {
		t.Error("unwritten word reported as valid")
	}
	b.Write(3, 0xBEEF)
	word, ok := b.Read(3)
	if !ok || word != 0xBEEF {
		t.Errorf("Read(3) = (%#x, %v), want (0xBEEF, true)", word, ok)
	}
	stats := b.Stats()
	if stats.Reads != 2 || stats.Writes != 1 {
		t.Errorf("stats = %+v, want 2 reads / 1 write", stats)
	}
	if stats.Accesses() != 3 {
		t.Errorf("Accesses() = %d, want 3", stats.Accesses())
	}

	b.Invalidate(3)
	if _, ok := b.Read(3); ok {
		t.Error("invalidated word reported as valid")
	}
	// Invalidate does not count as a data-path access.
	if got := b.Stats().Writes; got != 1 {
		t.Errorf("writes after Invalidate = %d, want 1", got)
	}

	b.ResetCounters()
	if s := b.Stats(); s.Reads != 0 || s.Writes != 0 {
		t.Errorf("counters not reset: %+v", s)
	}
}

func TestBlockWidthEnforcement(t *testing.T) {
	b := NewBlock("narrow", 4, 4)
	b.Write(0, 0xF) // fits exactly
	defer func() {
		if recover() == nil {
			t.Error("Write of oversized word did not panic")
		}
	}()
	b.Write(1, 0x10)
}

func TestBlockAddressEnforcement(t *testing.T) {
	b := NewBlock("small", 8, 4)
	for _, addr := range []int{-1, 4, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("access to address %d did not panic", addr)
				}
			}()
			b.Read(addr)
		}()
	}
}

func TestBlockFullWidthWords(t *testing.T) {
	b := NewBlock("wide", 64, 2)
	b.Write(0, ^uint64(0))
	word, ok := b.Read(0)
	if !ok || word != ^uint64(0) {
		t.Errorf("64-bit word round trip failed: %#x", word)
	}
}

func TestBlockUsedWordsAndClear(t *testing.T) {
	b := NewBlock("occupancy", 10, 16)
	for i := 0; i < 5; i++ {
		b.Write(i, uint64(i))
	}
	if got := b.UsedWords(); got != 5 {
		t.Errorf("UsedWords() = %d, want 5", got)
	}
	if got := b.UsedBits(); got != 50 {
		t.Errorf("UsedBits() = %d, want 50", got)
	}
	b.Clear()
	if b.UsedWords() != 0 {
		t.Error("Clear() left valid words behind")
	}
	if s := b.Stats(); s.Accesses() != 0 {
		t.Error("Clear() left access counters behind")
	}
}

func TestBlockReadWriteProperty(t *testing.T) {
	b := NewBlock("prop", 32, 128)
	f := func(addrRaw uint8, value uint32) bool {
		addr := int(addrRaw) % b.Depth()
		b.Write(addr, uint64(value))
		word, ok := b.Read(addr)
		return ok && word == uint64(value)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBlockConcurrentAccess(t *testing.T) {
	b := NewBlock("concurrent", 32, 64)
	var wg sync.WaitGroup
	const workers = 8
	const iterations = 200
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				addr := (w*iterations + i) % b.Depth()
				b.Write(addr, uint64(i))
				b.Read(addr)
			}
		}(w)
	}
	wg.Wait()
	stats := b.Stats()
	if stats.Reads != workers*iterations || stats.Writes != workers*iterations {
		t.Errorf("concurrent stats = %+v, want %d reads and writes", stats, workers*iterations)
	}
}

func TestProfileAggregation(t *testing.T) {
	a := NewBlock("a", 8, 16)
	b := NewBlock("b", 16, 32)
	p := NewProfile().Register(a, b)
	if got, want := p.TotalCapacityBits(), 8*16+16*32; got != want {
		t.Errorf("TotalCapacityBits() = %d, want %d", got, want)
	}
	a.Write(0, 1)
	b.Write(1, 2)
	b.Read(1)
	if got := p.TotalUsedBits(); got != 8+16 {
		t.Errorf("TotalUsedBits() = %d, want 24", got)
	}
	if got := p.TotalAccesses(); got != 3 {
		t.Errorf("TotalAccesses() = %d, want 3", got)
	}
	stats := p.StatsByName()
	if len(stats) != 2 || stats[0].Name != "a" || stats[1].Name != "b" {
		t.Errorf("StatsByName() = %+v", stats)
	}
	p.ResetCounters()
	if p.TotalAccesses() != 0 {
		t.Error("ResetCounters() did not zero counters")
	}
	if len(p.Blocks()) != 2 {
		t.Errorf("Blocks() = %d entries, want 2", len(p.Blocks()))
	}
}

func TestSharedBlockSelection(t *testing.T) {
	phys := NewBlock("shared-l2", 49, 256)
	s := NewSharedBlockOwner(phys, "mbt")
	if s.Owner() != "mbt" {
		t.Fatalf("Owner() = %q, want mbt", s.Owner())
	}
	if s.Physical() != phys {
		t.Error("Physical() does not return the underlying block")
	}
	// The MBT view is live, the BST view must be nil.
	if s.ViewOwner("mbt") == nil {
		t.Error(`ViewOwner("mbt") = nil while mbt owns the block`)
	}
	if s.ViewOwner("bst") != nil {
		t.Error(`ViewOwner("bst") != nil while mbt owns the block`)
	}

	// Write MBT data, then switch to BST: the block must be cleared because
	// the controller re-programmes it with the other algorithm's nodes.
	phys.Write(0, 42)
	s.SelectOwner("bst")
	if s.Owner() != "bst" {
		t.Fatalf("Owner() after switch = %q, want bst", s.Owner())
	}
	if phys.UsedWords() != 0 {
		t.Error("switching algorithms did not clear the shared block")
	}
	if s.ViewOwner("mbt") != nil {
		t.Error(`ViewOwner("mbt") != nil after switching to bst`)
	}

	// Re-selecting the current algorithm is a no-op and must not clear data.
	phys.Write(0, 7)
	s.SelectOwner("bst")
	if phys.UsedWords() != 1 {
		t.Error("re-selecting the same algorithm cleared the block")
	}
}

func TestAlgSelectString(t *testing.T) {
	if SelectMBT.String() != "MBT" || SelectBST.String() != "BST" {
		t.Errorf("AlgSelect names = %q, %q", SelectMBT, SelectBST)
	}
	if AlgSelect(9).String() == "" {
		t.Error("unknown AlgSelect should still render")
	}
}
