package hashunit

import (
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	for _, bits := range []int{0, -1, 33} {
		if _, err := New(bits); err == nil {
			t.Errorf("New(%d) should fail", bits)
		}
	}
	u, err := New(13)
	if err != nil {
		t.Fatalf("New(13): %v", err)
	}
	if u.Slots() != 8192 {
		t.Errorf("unit geometry = %d slots, want 8192", u.Slots())
	}
	defer func() {
		if recover() == nil {
			t.Error("MustNew(0) did not panic")
		}
	}()
	MustNew(0)
}

func TestHashInRangeAndDeterministic(t *testing.T) {
	u := MustNew(13)
	f := func(key [9]byte) bool {
		a := u.Hash(key)
		b := u.Hash(key)
		return a == b && int(a) < u.Slots()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHashSensitivity(t *testing.T) {
	// Flipping any single bit of the key must change the address for the
	// overwhelming majority of positions; require at least 80% here.
	u := MustNew(13)
	base := [9]byte{0x0A, 0x12, 0x34, 0x56, 0x78, 0x9A, 0xBC, 0xDE, 0xF0}
	baseHash := u.Hash(base)
	changed := 0
	total := 0
	for byteIdx := 0; byteIdx < len(base); byteIdx++ {
		for bit := 0; bit < 8; bit++ {
			if byteIdx == 0 && bit >= 4 {
				continue // only 68 bits are meaningful
			}
			flipped := base
			flipped[byteIdx] ^= 1 << bit
			total++
			if u.Hash(flipped) != baseHash {
				changed++
			}
		}
	}
	if float64(changed) < 0.8*float64(total) {
		t.Errorf("only %d/%d single-bit flips changed the address", changed, total)
	}
}

func TestHashDistribution(t *testing.T) {
	// Hashing sequential label combinations (the realistic key population)
	// must spread across the table: with 4096 keys into 8192 slots, demand a
	// load on every 1/8th of the table and no slot used more than 8 times.
	u := MustNew(13)
	counts := make(map[uint32]int)
	octants := make(map[uint32]int)
	for i := 0; i < 4096; i++ {
		var key [9]byte
		key[8] = byte(i)
		key[7] = byte(i >> 8)
		key[5] = byte(i % 7)
		addr := u.Hash(key)
		counts[addr]++
		octants[addr/1024]++
	}
	for addr, c := range counts {
		if c > 8 {
			t.Errorf("slot %d used %d times", addr, c)
		}
	}
	if len(octants) < 8 {
		t.Errorf("keys landed in only %d/8 octants of the table", len(octants))
	}
}

func TestProbeSequence(t *testing.T) {
	u := MustNew(4) // 16 slots, easy to reason about wrap-around
	key := [9]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}
	first := u.Probe(key, 0)
	if first != u.Hash(key) {
		t.Errorf("Probe(key, 0) = %d, want Hash(key) = %d", first, u.Hash(key))
	}
	seen := make(map[uint32]bool)
	for i := 0; i < u.Slots(); i++ {
		addr := u.Probe(key, i)
		if int(addr) >= u.Slots() {
			t.Fatalf("probe %d produced out-of-range address %d", i, addr)
		}
		if seen[addr] {
			t.Fatalf("probe sequence revisited address %d before covering the table", addr)
		}
		seen[addr] = true
	}
	if len(seen) != u.Slots() {
		t.Errorf("probe sequence covered %d slots, want %d", len(seen), u.Slots())
	}
}

func TestLatencyConstant(t *testing.T) {
	// §V.A charges exactly one clock cycle for the hardware hash.
	if LatencyCycles != 1 {
		t.Errorf("LatencyCycles = %d, want 1", LatencyCycles)
	}
}
