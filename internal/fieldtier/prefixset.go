package fieldtier

import (
	"math/bits"

	"sdnpc/internal/label"
)

// prefixSet answers, for the field engine's combination walk, whether some
// installed rule's combination key starts with a given label prefix
// (l1..lk), 1 <= k < NumDimensions. It is a one-hash Bloom filter — one bit
// per (depth, partial key) — so it can say yes to a prefix no rule has, never
// no to one a rule has: the walk treats a yes as "worth descending" and
// takes every verdict from the Rule Filter.
//
// A set is built whole from the Rule Filter's live keys each time the engine
// is prepared for publishing and never edited afterwards, so a recycled label
// cannot leave a stale bit behind and readers share it without
// synchronisation. The zero value holds nothing.
type prefixSet struct {
	words []uint64
	// shift turns a 64-bit hash into a bit index: the index is the hash's
	// top log2(64*len(words)) bits.
	shift uint
}

// prefixBitsPerKey is the minimum number of filter bits provisioned per
// stored prefix; rounding the array up to a power of two lands between this
// and twice it. Rules share prefixes, so on the 1k ClassBench sets the 8 KiB
// array ends up 5–6 % full — the rate at which the walk descends into a
// prefix no rule has. Doubling the array saves 0.1 Rule Filter slots per
// packet.
const prefixBitsPerKey = 8

// newPrefixSet builds the set of every proper label prefix of every key
// stored in the Rule Filter.
func newPrefixSet(rf *ruleFilter) prefixSet {
	n := rf.used * (label.NumDimensions - 1)
	if n == 0 {
		return prefixSet{}
	}
	logBits := max(bits.Len(uint(n*prefixBitsPerKey-1)), 6)
	p := prefixSet{words: make([]uint64, 1<<(logBits-6)), shift: uint(64 - logBits)}
	rf.live(func(_ int, e *ruleEntry) {
		for depth := 1; depth < label.NumDimensions; depth++ {
			bit := prefixHash(depth, e.key().Prefix(depth)) >> p.shift
			p.words[bit>>6] |= 1 << (bit & 63)
		}
	})
	return p
}

// has reports whether the set may hold the depth-label prefix whose key is k.
func (p *prefixSet) has(depth int, k label.CombinationKey) bool {
	if p.words == nil {
		return false
	}
	bit := prefixHash(depth, k) >> p.shift
	return p.words[bit>>6]&(1<<(bit&63)) != 0
}

// prefixHash mixes a partial key and its depth into 64 well-spread bits (the
// splitmix64 finaliser). The depth is part of the hash because partial keys
// of different depths overlap numerically.
func prefixHash(depth int, k label.CombinationKey) uint64 {
	x := k.Uint64() + uint64(depth)*0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}
