// Package cow provides the copy-on-write chunked storage the update plane's
// tables are kept in: Array for the core's rule table and Rule Filter and for
// the packet structures' record stores, field values and hash slots, and Lists
// for the HyperCuts leaf lists and the DCFL combination sets.
//
// An Array keeps its elements in fixed chunks of ChunkLen behind a
// directory. Clone shares the directory and every chunk; a write copies the
// one chunk it lands in, and the directory the first time, so an update
// that writes one element of a published table costs one chunk, not the
// table. Ownership is an owner stamp per directory entry: an array writes a
// chunk in place only when the entry carries its own stamp, and Clone takes
// both sides' stamps away. Readers never look at stamps.
package cow

import (
	"slices"
	"sync/atomic"
)

// ChunkLen is the number of elements per chunk: the unit a write copies.
const (
	ChunkShift = 6
	ChunkLen   = 1 << ChunkShift
)

// Array is a copy-on-write sequence of T. The zero value is an empty array.
type Array[T any] struct {
	dir []entry[T]
	n   int
	// stamp is what this array may write in place: the chunks whose entry
	// carries it and, when dirStamp equals it, the directory. Zero until the
	// array first writes; Clone resets it on both sides.
	stamp, dirStamp uint64
}

// entry is one directory slot. owner 0 marks a chunk no array owns: one
// adopted from a caller's slice, or Make's shared zero chunk.
type entry[T any] struct {
	owner uint64
	c     *[ChunkLen]T
}

var stamps atomic.Uint64

// Make returns an array of n zero elements whose directory points at one
// shared zero chunk: nothing is allocated per chunk until it is written.
func Make[T any](n int) Array[T] {
	zero := new([ChunkLen]T)
	dir := make([]entry[T], (n+ChunkLen-1)>>ChunkShift)
	for k := range dir {
		dir[k].c = zero
	}
	return owning(dir, n)
}

// Adopt returns an array over s's elements without copying them: its chunks
// alias s's backing array (all but a tail chunk that does not fit s's
// capacity) and are copied before any write, so the array never writes s.
// The caller must not modify s afterwards.
func Adopt[T any](s []T) Array[T] {
	dir := make([]entry[T], (len(s)+ChunkLen-1)>>ChunkShift)
	for k := range dir {
		lo := k << ChunkShift
		if lo+ChunkLen <= cap(s) {
			dir[k].c = (*[ChunkLen]T)(s[lo : lo+ChunkLen])
			continue
		}
		dir[k].c = new([ChunkLen]T)
		copy(dir[k].c[:], s[lo:])
	}
	return owning(dir, len(s))
}

// owning returns an array over a directory it has just allocated.
func owning[T any](dir []entry[T], n int) Array[T] {
	s := stamps.Add(1)
	return Array[T]{dir: dir, n: n, stamp: s, dirStamp: s}
}

// Len returns the number of elements.
func (a *Array[T]) Len() int { return a.n }

// At returns element i for reading only.
func (a *Array[T]) At(i int) *T { return &a.dir[i>>ChunkShift].c[i&(ChunkLen-1)] }

// Chunk returns the elements of chunk k for reading only: ChunkLen of them,
// fewer in the last chunk. A scan over every element reads chunk by chunk.
func (a *Array[T]) Chunk(k int) []T {
	return a.dir[k].c[:min(ChunkLen, a.n-k<<ChunkShift)]
}

// Mut returns element i for writing, first copying its chunk, and the
// directory, when this array does not own them.
func (a *Array[T]) Mut(i int) *T {
	a.ownDir()
	e := &a.dir[i>>ChunkShift]
	if e.owner != a.stamp {
		c := new([ChunkLen]T)
		*c = *e.c
		e.owner, e.c = a.stamp, c
	}
	return &e.c[i&(ChunkLen-1)]
}

// Append adds v at the end.
func (a *Array[T]) Append(v T) {
	if a.n == len(a.dir)<<ChunkShift {
		a.ownDir()
		a.dir = append(a.dir, entry[T]{owner: a.stamp, c: new([ChunkLen]T)})
	}
	a.n++
	*a.Mut(a.n - 1) = v
}

// Clone returns an array sharing a's directory and chunks. Neither side
// writes them in place afterwards: Clone writes a's stamp, so it needs the
// same serialisation as a write to a, but no reader of a ever sees it.
func (a *Array[T]) Clone() Array[T] {
	a.stamp = 0
	return Array[T]{dir: a.dir, n: a.n}
}

// ownDir draws a stamp for an array about to write and makes the directory
// private to it.
func (a *Array[T]) ownDir() {
	if a.stamp == 0 {
		a.stamp = stamps.Add(1)
	}
	if a.dirStamp != a.stamp {
		a.dir = slices.Clone(a.dir)
		a.dirStamp = a.stamp
	}
}
