// Package vec holds the typed column vectors PushdownDB decodes columnar
// data into (int64/float64/string/bool/date payloads plus null bitmaps, or
// boxed values for a column that mixes kinds). It has no operators: every
// filter, projection, group-by and join runs on the engine's row path
// (engine.Filter, Project, GroupBy, HashJoin), one loop over the rows, and
// no engine code builds a vector from rows. Only the benchmark's row↔vector
// converters (FromStrings, FromRows) split their columns across workers. The
// decoders lay every column out through one rule (Vector.put), and the
// differential and fuzz tests pin each vector's cells to the row path's.
package vec

// Bitmap is a fixed-length bitset: a vector's null mask (set bit = NULL).
type Bitmap struct{ words []uint64 }

// Get reports bit i.
func (b *Bitmap) Get(i int) bool {
	return b.words[i>>6]&(1<<uint(i&63)) != 0
}

// Set sets bit i.
func (b *Bitmap) Set(i int) {
	b.words[i>>6] |= 1 << uint(i&63)
}
