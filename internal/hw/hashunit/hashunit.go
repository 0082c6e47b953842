// Package hashunit models the hardware hash function that converts the
// 68-bit label combination key into the Highest Priority Matching Rule
// address in the Rule Filter memory block (§IV.A: "The final address to
// store each rule in the Rule Filter block is performed using a hash
// function implemented in hardware", §V.A: one extra clock cycle per rule
// update for the hash).
//
// The function is a 64-bit FNV-1a variant folded to the table's address
// width — a multiply-and-xor structure that synthesises to a short pipeline
// on an FPGA. Collisions are resolved by the Rule Filter itself (open
// addressing with linear probing); the unit only produces the initial
// address and reports how wide the probe sequence had to be so that the
// experiment harness can check the single-cycle assumption holds at the
// evaluated load factors.
package hashunit

import "fmt"

// LatencyCycles is the pipeline depth of the hash unit: the paper charges
// one clock cycle for obtaining the rule address.
const LatencyCycles = 1

const (
	fnvOffset uint64 = 0xcbf29ce484222325
	fnvPrime  uint64 = 0x100000001b3
)

// Unit is a hash unit producing addresses of a fixed width.
type Unit struct {
	addressBits int
}

// New creates a hash unit producing addresses in [0, 2^addressBits).
func New(addressBits int) (*Unit, error) {
	if addressBits < 1 || addressBits > 32 {
		return nil, fmt.Errorf("hashunit: address width %d out of range [1,32]", addressBits)
	}
	return &Unit{addressBits: addressBits}, nil
}

// MustNew is like New but panics on error.
func MustNew(addressBits int) *Unit {
	u, err := New(addressBits)
	if err != nil {
		panic(err)
	}
	return u
}

// Slots returns the number of addressable slots.
func (u *Unit) Slots() int { return 1 << u.addressBits }

// Hash maps the 9-byte (68-bit) combination key to an address.
func (u *Unit) Hash(key [9]byte) uint32 {
	h := fnvOffset
	for _, b := range key {
		h ^= uint64(b)
		h *= fnvPrime
	}
	// Fold the 64-bit digest down to the address width, mixing high and low
	// halves so that short addresses still depend on every input bit.
	folded := h ^ (h >> 32)
	folded ^= folded >> uint(u.addressBits)
	return uint32(folded) & uint32(u.Slots()-1)
}

// Probe returns the i-th address of the probe sequence for the key (linear
// probing with wrap-around). Probe(key, 0) equals Hash(key).
func (u *Unit) Probe(key [9]byte, i int) uint32 {
	return (u.Hash(key) + uint32(i)) & uint32(u.Slots()-1)
}
