package cow

import (
	"slices"
	"testing"
)

func contents(a *Array[int]) []int {
	out := make([]int, a.Len())
	for i := range out {
		out[i] = *a.At(i)
	}
	return out
}

// TestAdoptNeverWritesTheSlice: an adopted slice is read in place — the
// chunks alias it — and never written, whether its capacity covers the tail
// chunk or not.
func TestAdoptNeverWritesTheSlice(t *testing.T) {
	for _, capacity := range []int{100, 128} {
		s := make([]int, 100, capacity)
		for i := range s {
			s[i] = i
		}
		orig := slices.Clone(s[:capacity])
		a := Adopt(s)
		if a.At(0) != &s[0] {
			t.Fatalf("cap %d: the first chunk does not alias the slice", capacity)
		}
		*a.Mut(3) = -3
		*a.Mut(99) = -99
		a.Append(100)
		if !slices.Equal(s[:capacity], orig) {
			t.Fatalf("cap %d: the array wrote the adopted slice", capacity)
		}
		want := append(slices.Clone(orig[:100]), 100)
		want[3], want[99] = -3, -99
		if got := contents(&a); !slices.Equal(got, want) {
			t.Fatalf("cap %d: array holds %v, want %v", capacity, got, want)
		}
	}
}

// TestCloneSharesUntilWritten: a clone shares every chunk, and from then on
// neither side's writes — in place or by append — show through the other,
// whichever side writes first.
func TestCloneSharesUntilWritten(t *testing.T) {
	for _, originalFirst := range []bool{true, false} {
		a := Make[int](150)
		for i := range a.Len() {
			*a.Mut(i) = i
		}
		b := a.Clone()
		for i := range a.Len() {
			if a.At(i) != b.At(i) {
				t.Fatalf("element %d is not shared by a fresh clone", i)
			}
		}
		first, second := &a, &b
		if !originalFirst {
			first, second = second, first
		}
		wantFirst, wantSecond := contents(first), contents(second)
		*first.Mut(140) = -1
		first.Append(-2)
		wantFirst[140] = -1
		wantFirst = append(wantFirst, -2)
		if got := contents(second); !slices.Equal(got, wantSecond) {
			t.Fatalf("original first %v: the other side's write showed through: %v", originalFirst, got)
		}
		*second.Mut(10) = -3
		wantSecond[10] = -3
		if got := contents(first); !slices.Equal(got, wantFirst) {
			t.Fatalf("original first %v: the other side's write showed through: %v", originalFirst, got)
		}
		if a.At(70) != b.At(70) {
			t.Fatal("a chunk neither side wrote is no longer shared")
		}
	}
}

func listsOf(s *Lists) [][]uint32 {
	out := make([][]uint32, s.Len())
	for i := range out {
		out[i] = slices.Clone(s.List(i))
	}
	return out
}

// TestListsEditsReplaceChunks: edits insert and remove in place of the list
// order, append across a chunk boundary, and after a Clone neither side's
// edits show through the other, whichever side edits first, while a chunk
// neither side edited stays shared.
func TestListsEditsReplaceChunks(t *testing.T) {
	for _, originalFirst := range []bool{true, false} {
		var a Lists
		a.AppendChunk([][]uint32{{1, 3}, {}, {7}})
		for v := range uint32(ChunkLen) {
			a.Append(100 + v)
		}
		if a.Len() != 3+ChunkLen || a.Chunks() != 2 {
			t.Fatalf("%d lists in %d chunks, want %d in 2", a.Len(), a.Chunks(), 3+ChunkLen)
		}
		b := a.Clone()
		first, second := &a, &b
		if !originalFirst {
			first, second = second, first
		}
		want := listsOf(second)
		first.Insert(0, 1<<0|1<<1, 2, func(l []uint32) int { return min(1, len(l)) })
		first.Remove(0, 1<<2, 7)
		first.Append(9)
		got := listsOf(first)
		if !slices.Equal(got[0], []uint32{1, 2, 3}) || !slices.Equal(got[1], []uint32{2}) || len(got[2]) != 0 || !slices.Equal(got[len(got)-1], []uint32{9}) {
			t.Fatalf("original first %v: edited lists %v", originalFirst, got)
		}
		if !slices.EqualFunc(listsOf(second), want, slices.Equal) {
			t.Fatalf("original first %v: the other side's edits showed through", originalFirst)
		}
		want = listsOf(first)
		second.Remove(1, 1<<1, 100+ChunkLen-2) // list ChunkLen+1 holds 100+ChunkLen-2
		if !slices.EqualFunc(listsOf(first), want, slices.Equal) {
			t.Fatalf("original first %v: the other side's edits showed through", originalFirst)
		}
		if &a.Chunk(0)[0] == &b.Chunk(0)[0] || &a.Chunk(1)[0] == &b.Chunk(1)[0] {
			t.Fatalf("original first %v: an edited chunk is still shared", originalFirst)
		}
	}
}
