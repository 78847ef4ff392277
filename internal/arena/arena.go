// Package arena is the allocation rule of the select/GET path in one place:
// a decoded response or partition costs O(bytes / chunk) allocations, never
// one per row or per cell. A local hash join (its rows share one array), the
// group table of an aggregation (expr.RowExec) and the rows a block emits
// into a relation keep the rule too. Text hands out owned
// strings cut from append-only chunks, Slab windows of backing arrays. Both
// start at the size of the first request and double up to a fixed cap, so
// a one-row decode keeps little more than its row alive and a large one
// wastes at most a chunk. Nothing handed out is ever moved, rewritten or
// pooled; a value keeps alive the chunk it was cut from, as a surviving
// joined row keeps its join's whole array. Not for concurrent use.
package arena

import "strings"

const (
	maxTextChunk = 64 << 10 // bytes
	maxSlabChunk = 4 << 10  // elements
)

// Text is an append-only run of string chunks.
type Text struct{ chunk strings.Builder }

// String returns an owned copy of b. A strings.Builder with room to spare
// appends in place, so what it returned earlier is neither moved nor copied.
func (t *Text) String(b []byte) string {
	if len(b) == 0 {
		return "" // pins no chunk
	}
	if t.chunk.Cap()-t.chunk.Len() < len(b) {
		size := min(2*t.chunk.Cap(), maxTextChunk)
		t.chunk.Reset()
		t.chunk.Grow(max(size, len(b)))
	}
	start := t.chunk.Len()
	t.chunk.Write(b)
	return t.chunk.String()[start:]
}

// Slab hands out windows of backing arrays of T.
type Slab[T any] struct {
	free []T // the unused tail of the newest array
	size int // that array's length
}

// Grow makes the next n elements come from one array, allocating it now if
// the current one lacks the room: a caller that knows its total pre-sizes.
func (s *Slab[T]) Grow(n int) {
	if n > len(s.free) {
		s.size = max(n, min(2*s.size, maxSlabChunk))
		s.free = make([]T, s.size)
	}
}

// Make returns a zeroed window of n elements whose capacity is its length:
// an append to it reallocates and can never write into the next window.
func (s *Slab[T]) Make(n int) []T {
	if n == 0 {
		return []T{} // non-nil like make's, and pins no array
	}
	s.Grow(n)
	w := s.free[:n:n]
	s.free = s.free[n:]
	return w
}
