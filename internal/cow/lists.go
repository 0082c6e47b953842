package cow

import (
	"math/bits"
	"slices"
)

// ListChunk holds ChunkLen consecutive lists of uint32 in one pointer-free
// allocation: ChunkLen+1 offsets, then the elements, list j at
// [lc[j], lc[j+1]). A chunk is never written once made; an edit replaces it
// with an exact-fit copy.
type ListChunk []uint32

// List returns list j of the chunk.
func (lc ListChunk) List(j int) []uint32 { return lc[lc[j]:lc[j+1]] }

// newListChunk lays out up to ChunkLen lists as one exact-fit chunk; the
// lists past len(lists) are empty.
func newListChunk(lists [][]uint32) ListChunk {
	n := ChunkLen + 1
	for _, l := range lists {
		n += len(l)
	}
	lc := make(ListChunk, ChunkLen+1, n)
	for j := range ChunkLen {
		lc[j] = uint32(len(lc))
		if j < len(lists) {
			lc = append(lc, lists[j]...)
		}
	}
	lc[ChunkLen] = uint32(len(lc))
	return lc
}

// Lists is a copy-on-write sequence of uint32 lists, ChunkLen of them to a
// ListChunk behind a directory. Clone shares the directory and every chunk;
// an edit replaces the one chunk it changes, and copies the directory the
// first time, so it costs one chunk, not the lists. The zero value is empty.
type Lists struct {
	chunks []ListChunk
	n      int
	// owned is whether the directory is private to this value: true once it
	// has written the directory, false again after Clone.
	owned bool
}

// Len returns the number of lists.
func (s *Lists) Len() int { return s.n }

// List returns list i for reading only.
func (s *Lists) List(i int) []uint32 { return s.chunks[i>>ChunkShift].List(i & (ChunkLen - 1)) }

// Chunks returns the number of chunks.
func (s *Lists) Chunks() int { return len(s.chunks) }

// Chunk returns chunk k for reading only.
func (s *Lists) Chunk(k int) ListChunk { return s.chunks[k] }

// AppendChunk adds up to ChunkLen lists at the end as one new chunk: the
// build's way in. Len must be a multiple of ChunkLen.
func (s *Lists) AppendChunk(lists [][]uint32) {
	s.set(len(s.chunks), newListChunk(lists))
	s.n += len(lists)
}

// Append adds the one-element list [v] at the end.
func (s *Lists) Append(v uint32) {
	if s.n&(ChunkLen-1) == 0 {
		s.AppendChunk([][]uint32{{v}})
		return
	}
	s.Insert(s.n>>ChunkShift, 1<<(s.n&(ChunkLen-1)), v, func([]uint32) int { return 0 })
	s.n++
}

// Insert replaces chunk k by a copy in which every list j whose bit is set
// in touched has gained v at index at(list j).
func (s *Lists) Insert(k int, touched uint64, v uint32, at func(list []uint32) int) {
	s.splice(k, touched, v, at)
}

// Remove replaces chunk k by a copy in which every list j whose bit is set
// in touched has lost its element v, which it must hold.
func (s *Lists) Remove(k int, touched uint64, v uint32) {
	s.splice(k, touched, v, nil)
}

// splice rewrites chunk k: at != nil inserts v into the touched lists, nil
// removes it.
func (s *Lists) splice(k int, touched uint64, v uint32, at func([]uint32) int) {
	old := s.chunks[k]
	size := len(old) - bits.OnesCount64(touched)
	if at != nil {
		size = len(old) + bits.OnesCount64(touched)
	}
	lc := make(ListChunk, ChunkLen+1, size)
	for j := range ChunkLen {
		lc[j] = uint32(len(lc))
		list := old.List(j)
		switch {
		case touched>>j&1 == 0:
			lc = append(lc, list...)
		case at != nil:
			i := at(list)
			lc = append(append(append(lc, list[:i]...), v), list[i:]...)
		default:
			i := slices.Index(list, v)
			lc = append(append(lc, list[:i]...), list[i+1:]...)
		}
	}
	lc[ChunkLen] = uint32(len(lc))
	s.set(k, lc)
}

// set stores chunk k, or appends it when k is the chunk count, copying the
// directory first unless s owns it.
func (s *Lists) set(k int, lc ListChunk) {
	if !s.owned {
		s.chunks = slices.Clone(s.chunks)
		s.owned = true
	}
	if k == len(s.chunks) {
		s.chunks = append(s.chunks, lc)
		return
	}
	s.chunks[k] = lc
}

// Clone returns lists sharing s's directory and chunks. Neither side writes
// the directory in place afterwards: Clone writes s's ownership, so it needs
// the same serialisation as an edit of s, but no reader of s ever sees it.
func (s *Lists) Clone() Lists {
	s.owned = false
	return Lists{chunks: s.chunks, n: s.n}
}
