package label

import (
	"encoding/binary"
	"fmt"
)

// CombinationKey is the 68-bit data segment formed by concatenating one label
// per dimension (§IV.C.1: "the first labels are merged in one large data
// segment (68 bits)"). It is the input to the hardware hash unit that yields
// the Highest Priority Matching Rule address.
//
// The packing order follows Dimensions(): srcIP.hi, srcIP.lo, dstIP.hi,
// dstIP.lo (13 bits each), srcPort, dstPort (7 bits each), protocol (2 bits),
// most significant first. Because 68 bits exceed a uint64 the key is held as
// a (high nibble, low 64 bits) pair.
type CombinationKey struct {
	hi uint8  // top 4 bits of the 68-bit value
	lo uint64 // bottom 64 bits
}

// PackKeyDims builds the combination key from a dimension-indexed label
// array (index 0 unused — Dimension is a dense 1-based enum). Labels must fit
// their dimension width; out-of-range labels indicate a programming error and
// cause a panic.
func PackKeyDims(labels *[NumDimensions + 1]Label) CombinationKey {
	var k CombinationKey
	for _, d := range Dimensions() {
		k = k.Append(d, labels[d])
	}
	return k
}

// Append shifts the label of dimension d in at the least-significant end of
// the key. Appending one label per dimension in Dimensions() order to the
// zero key yields the full combination key; stopping early yields the key of
// a label prefix, which is how the field tier's combination walk extends a
// partial tuple one dimension at a time. An out-of-range label panics, as in
// PackKeyDims.
func (k CombinationKey) Append(d Dimension, lbl Label) CombinationKey {
	if int(lbl) >= d.Capacity() {
		panic(fmt.Sprintf("label: label %d exceeds %d-bit dimension %s", lbl, d.Bits(), d))
	}
	return k.shiftIn(uint64(lbl), uint(d.Bits()))
}

// Prefix returns the key of the first n dimensions' labels — what n Append
// calls produced on the way to this full key. Prefix(NumDimensions) is the
// key itself.
func (k CombinationKey) Prefix(n int) CombinationKey {
	drop := uint(0)
	for _, d := range allDimensions[n:] {
		drop += uint(d.Bits())
	}
	// Shift counts of 64 and above yield zero in Go, which is what a
	// 68-bit-wide shift needs at both ends of the range.
	return CombinationKey{hi: k.hi >> drop, lo: k.lo>>drop | uint64(k.hi)<<(64-drop)}
}

// Hi returns the top 4 bits of the 68-bit key.
func (k CombinationKey) Hi() uint8 { return k.hi }

// Lo returns the bottom 64 bits of the key.
func (k CombinationKey) Lo() uint64 { return k.lo }

// KeyFromParts rebuilds a key from its Hi and Lo halves.
func KeyFromParts(hi uint8, lo uint64) CombinationKey {
	return CombinationKey{hi: hi & 0xF, lo: lo}
}

// shiftIn appends width bits of value to the least-significant end of the
// key.
func (k CombinationKey) shiftIn(value uint64, width uint) CombinationKey {
	hi := uint64(k.hi)<<width | k.lo>>(64-width)
	lo := k.lo<<width | (value & ((1 << width) - 1))
	return CombinationKey{hi: uint8(hi & 0xF), lo: lo}
}

// Bytes serialises the key into 9 bytes (68 bits left-padded to 72), the
// format fed to the hash unit.
func (k CombinationKey) Bytes() [9]byte {
	var out [9]byte
	out[0] = k.hi
	binary.BigEndian.PutUint64(out[1:], k.lo)
	return out
}

// Uint64 folds the key into 64 bits by XORing the high nibble onto the low
// word. It is a convenience for hash-map keys in software models; the
// hardware path uses Bytes.
func (k CombinationKey) Uint64() uint64 {
	return k.lo ^ uint64(k.hi)<<60
}

// String renders the key as a 17-digit hexadecimal value.
func (k CombinationKey) String() string {
	return fmt.Sprintf("%01x%016x", k.hi, k.lo)
}

// Label returns the label the key carries in dimension d.
func (k CombinationKey) Label(d Dimension) Label {
	return Label(k.Prefix(int(d)).lo & uint64(d.Capacity()-1))
}

// Unpack recovers the per-dimension labels from the key. It is the inverse of
// PackKeyDims and exists for debugging and tests.
func (k CombinationKey) Unpack() map[Dimension]Label {
	out := make(map[Dimension]Label, NumDimensions)
	for _, d := range Dimensions() {
		out[d] = k.Label(d)
	}
	return out
}
