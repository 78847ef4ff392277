// Package vec implements batched columnar execution for PushdownDB's
// local operators: typed column vectors (int64/float64/string/bool/date
// payloads plus null bitmaps), selection bitmaps, and filter/project/
// hash-join/group-by kernels that process a column of values per step
// instead of dispatching an expression interpreter per row.
//
// Every kernel is a semantic mirror of the corresponding row-at-a-time
// operator in internal/engine (the engine.Operators reference): the
// same values, the same order, the same errors, at any worker count.
// The row path stays the reference implementation; the differential and
// fuzz tests pin the two paths byte-identical.
package vec

import "math/bits"

// Bitmap is a fixed-length bitset used for both null masks (set bit =
// NULL) and selection masks (set bit = row kept).
type Bitmap struct {
	words []uint64
	n     int
}

// NewBitmap returns an all-zero bitmap of n bits.
func NewBitmap(n int) *Bitmap {
	return &Bitmap{words: make([]uint64, (n+63)/64), n: n}
}

// Len returns the number of bits.
func (b *Bitmap) Len() int { return b.n }

// Get reports bit i.
func (b *Bitmap) Get(i int) bool {
	return b.words[i>>6]&(1<<uint(i&63)) != 0
}

// Set sets bit i.
func (b *Bitmap) Set(i int) {
	b.words[i>>6] |= 1 << uint(i&63)
}

// Count returns the number of set bits.
func (b *Bitmap) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// maskTail zeroes the unused bits of the final word so word-level
// operations (Count, Indices) stay exact.
func (b *Bitmap) maskTail() {
	if r := b.n & 63; r != 0 && len(b.words) > 0 {
		b.words[len(b.words)-1] &= (1 << uint(r)) - 1
	}
}

// Indices appends the positions of all set bits, ascending.
func (b *Bitmap) Indices() []int {
	out := make([]int, 0, b.Count())
	for wi, w := range b.words {
		base := wi << 6
		for w != 0 {
			out = append(out, base+bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	return out
}
