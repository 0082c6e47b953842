package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestMedianKnownInputs(t *testing.T) {
	xs := []float64{50, 10, 40, 20, 30} // unsorted on purpose
	if got := median(xs); got != 30 {
		t.Errorf("median = %v, want 30", got)
	}
	if xs[0] != 50 {
		t.Error("median reordered its input")
	}
	if got := median([]float64{4, 1, 3, 2}); !near(got, 2.5) {
		t.Errorf("median of an even count = %v, want 2.5", got)
	}
	if median(nil) != 0 {
		t.Error("median of nothing should be 0")
	}
}

func TestNearestRankReturnsASampleValue(t *testing.T) {
	// 64 positions, one of which pays the rebuild: the p99 is that one.
	xs := make([]float64, 64)
	for i := range xs {
		xs[i] = 1000
	}
	xs[17] = 17000
	if got := nearestRank(xs, 0.99); got != 17000 {
		t.Errorf("p99 of 63 ordinary ops and one rebuild = %v, want the rebuild's 17000", got)
	}
	if got := nearestRank(xs, 0.5); got != 1000 {
		t.Errorf("median = %v, want 1000", got)
	}
	// 1000 positions: rank ceil(990) = the 990th smallest.
	ys := make([]float64, 1000)
	for i := range ys {
		ys[i] = float64(1000 - i) // unsorted on purpose
	}
	if got := nearestRank(ys, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
	if nearestRank(nil, 0.99) != 0 {
		t.Error("nearestRank of nothing should be 0")
	}
}

func TestFastestKeepsTheFastestRepetitionOfEachPosition(t *testing.T) {
	f := make(fastest, 4)
	// Three repetitions of positions 0..2; position 3 is never visited.
	for _, rep := range [][3]float64{{10, 20, 30}, {12, 18, 90}, {11, 25, 31}} {
		for pos, v := range rep {
			f.add(pos, v)
		}
	}
	if got := f.seen(); len(got) != 3 || got[0] != 10 || got[1] != 18 || got[2] != 30 {
		t.Errorf("seen = %v, want [10 18 30]", got)
	}
	if total, visited := f.sum(); total != 58 || visited != 3 {
		t.Errorf("sum = %v over %d positions, want 58 over 3", total, visited)
	}
}

// A stream's figures on known inputs, shaped like the churn cycle: every
// piece counts at its fastest repetition, so a disturbed repetition moves
// neither the rate nor the tail, while a position that is slow every time (the
// op that pays the rebuild) shows in both.
func TestStreamRateAndTailOnKnownInputs(t *testing.T) {
	const positions, perPiece = 64, 16
	s := newStream(positions, perPiece, 1) // 1 op per call
	for rep := 0; rep < 3; rep++ {
		slow := time.Duration(1)
		if rep == 1 {
			slow = 3 // a disturbed repetition
		}
		for piece := 0; piece < positions/perPiece; piece++ {
			var cpu time.Duration
			for i := 0; i < perPiece; i++ {
				pos := piece*perPiece + i
				d := slow * time.Millisecond
				if pos == positions-1 {
					d += 50 * time.Millisecond // the rebuild, every time round
				}
				s.timed(pos, 1, d)
				cpu += d
			}
			s.cpu.add(piece, float64(cpu))
		}
	}
	// 64 ops in 64 ms + one rebuild.
	if got, want := s.rate(), 64/0.114; !near(got, want) {
		t.Errorf("rate = %v, want %v ops/s", got, want)
	}
	// 63 positions at 1000 us and the rebuild at 51000: p99 is the rebuild.
	if got := s.p99Us(); !near(got, 51000) {
		t.Errorf("p99 = %v us, want 51000", got)
	}
	// All 192 calls, disturbed ones included: 64 + 192 + 64 ms + 3 rebuilds.
	if got, want := s.wholeRunRate(), 192/0.47; !near(got, want) {
		t.Errorf("whole-run rate = %v, want %v", got, want)
	}

	short := newStream(positions, perPiece, 1)
	short.timed(0, 1, 2*time.Millisecond)
	if got := short.rate(); !near(got, 500) {
		t.Errorf("a run too short for one whole piece reports %v, want the whole-run 500 ops/s", got)
	}
}
