package main

import (
	"math"
	"sort"
	"time"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count). It sorts a copy; an empty input gives 0.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}

// nearestRank returns the p-quantile of xs as one of its values: the smallest
// one with at least a share p of the values at or below it. Over the 64
// positions of the churn cycle the 99th percentile is then the slowest
// position (one op in 64 pays the rebuild, so that is where a p99 over the
// ops lies), not a blend of the two slowest. An empty input gives 0.
func nearestRank(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p*float64(len(s)))) - 1
	return s[min(max(k, 0), len(s)-1)]
}

// fastest keeps, for every position of a repeating sequence of calls, the
// fastest repetition seen. The work at a position is the same every time the
// sequence comes round, and interference from the host only ever makes a call
// slower, so the fastest repetition is the position's cost with the host out
// of the way. Every position counts in the figures built from it: sum gives
// the cost of the whole sequence, quantile a tail over its positions. Zero
// marks a position not visited yet.
type fastest []float64

func (f fastest) add(pos int, v float64) {
	if f[pos] == 0 || v < f[pos] {
		f[pos] = v
	}
}

// seen returns the values of the visited positions.
func (f fastest) seen() []float64 {
	out := make([]float64, 0, len(f))
	for _, v := range f {
		if v > 0 {
			out = append(out, v)
		}
	}
	return out
}

// sum returns the total over the visited positions and how many there are.
func (f fastest) sum() (total float64, visited int) {
	for _, v := range f {
		if v > 0 {
			total += v
			visited++
		}
	}
	return total, visited
}

// rate is work per second of time spent inside the measured calls.
func rate(work int, busy time.Duration) float64 {
	if busy <= 0 {
		return 0
	}
	return float64(work) / busy.Seconds()
}
