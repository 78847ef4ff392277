package vec

import (
	"slices"

	"pushdowndb/internal/sqlparse"
	"pushdowndb/internal/value"
)

// Vector is one column of values. A vector is either typed — a single
// payload slice of the column's uniform Kind plus an optional null bitmap
// — or boxed, holding []value.Value verbatim for mixed-kind columns.
// Boxed is authoritative when non-nil.
//
// Typed payloads: KindInt and KindDate store in Ints (dates as days since
// epoch), KindBool stores 0/1 in Ints, KindFloat in Floats, KindString in
// Strs. Null slots hold the zero payload and are flagged in Nulls; a nil
// Nulls means the column has no NULLs. A column that is entirely NULL is
// typed with Kind==KindNull and no payload.
type Vector struct {
	Kind   value.Kind
	Ints   []int64
	Floats []float64
	Strs   []string
	Nulls  *Bitmap
	Boxed  []value.Value
	n      int
	// The null bitmap and boxed column a vector laid out again (Over) keeps
	// for its next NULL or mixed-kind column, as it keeps every payload.
	nulls Bitmap
	boxed []value.Value
}

// Len returns the number of rows.
func (v *Vector) Len() int { return v.n }

// IsNull reports whether row i is NULL.
func (v *Vector) IsNull(i int) bool {
	if v.Boxed != nil {
		return v.Boxed[i].IsNull()
	}
	if v.Kind == value.KindNull {
		return true
	}
	return v.Nulls != nil && v.Nulls.Get(i)
}

// Value reconstructs row i as the exact value.Value the column was built
// from, without allocating: how a decoded column becomes row cells.
func (v *Vector) Value(i int) value.Value {
	if v.Boxed != nil {
		return v.Boxed[i]
	}
	if v.Kind == value.KindNull || (v.Nulls != nil && v.Nulls.Get(i)) {
		return value.Null()
	}
	switch v.Kind {
	case value.KindInt:
		return value.Int(v.Ints[i])
	case value.KindFloat:
		return value.Float(v.Floats[i])
	case value.KindString:
		return value.Str(v.Strs[i])
	case value.KindBool:
		return value.Bool(v.Ints[i] != 0)
	case value.KindDate:
		return value.Date(v.Ints[i])
	}
	return value.Null()
}

// NewVector returns an n-row typed vector of kind k with a zeroed payload
// and no NULLs: Over with no storage to reuse.
func NewVector(k value.Kind, n int) *Vector { return Over(nil, k, n) }

// Over lays an n-row kind-k vector, zeroed and with no NULLs, over dst's
// arrays where they have room (a nil dst allocates), for the caller to fill
// in place: how a decoder builds the layout FromValues infers, each row
// group into the previous one's vector, whatever its kind was.
// KindNull, the all-NULL column, has no payload.
func Over(dst *Vector, k value.Kind, n int) *Vector {
	if dst == nil {
		dst = &Vector{}
	}
	dst.Nulls, dst.Boxed, dst.n = nil, nil, n
	dst.setKind(k)
	return dst
}

// setKind gives an all-NULL vector kind k and its zeroed payload, in the
// vector's own array of that payload type when it has room; the other
// payload arrays keep their storage, empty.
func (v *Vector) setKind(k value.Kind) {
	v.Kind, v.Ints, v.Floats, v.Strs = k, v.Ints[:0], v.Floats[:0], v.Strs[:0]
	switch k {
	case value.KindInt, value.KindDate, value.KindBool:
		v.Ints = zeroed(v.Ints, v.n)
	case value.KindFloat:
		v.Floats = zeroed(v.Floats, v.n)
	case value.KindString:
		v.Strs = zeroed(v.Strs, v.n)
	}
}

// Forget drops v's text, every string its payload and boxed arrays hold up
// to their capacity, keeping the arrays for the next Over: a pooled vector
// keeps no decoded object reachable.
func (v *Vector) Forget() {
	clear(v.Strs[:cap(v.Strs)])
	clear(v.boxed[:cap(v.boxed)])
}

// zeroed returns n zero elements, in s's array when it has room.
func zeroed[T any](s []T, n int) []T {
	s = slices.Grow(s[:0], n)[:n]
	clear(s)
	return s
}

// put writes x as row i of a vector under construction, rows arriving in
// ascending order: the first non-NULL value fixes the kind (the rows before
// it are NULL), and the first value of another kind re-lays the column
// boxed. Every decoder lays a column out through here, so they cannot
// disagree about what is typed.
func (v *Vector) put(i int, x value.Value) {
	switch k := x.Kind(); {
	case v.Boxed != nil:
		v.Boxed[i] = x
	case k == value.KindNull:
		if v.Kind != value.KindNull {
			v.SetNull(i)
		}
	case k == v.Kind:
		v.store(i, x)
	case v.Kind == value.KindNull:
		v.setKind(k)
		for j := 0; j < i; j++ {
			v.SetNull(j)
		}
		v.store(i, x)
	default:
		v.boxed = zeroed(v.boxed, v.n)
		for j := 0; j < i; j++ {
			v.boxed[j] = v.Value(j)
		}
		v.boxed[i] = x
		v.Kind, v.Nulls, v.Boxed = value.KindNull, nil, v.boxed
	}
}

// store writes the payload of x, a value of the vector's kind, at row i.
func (v *Vector) store(i int, x value.Value) {
	switch v.Kind {
	case value.KindFloat:
		v.Floats[i] = x.AsFloat()
	case value.KindString:
		v.Strs[i] = x.AsString()
	case value.KindBool:
		if x.AsBool() {
			v.Ints[i] = 1
		}
	default:
		v.Ints[i] = x.AsInt()
	}
}

// SetNull flags row i NULL.
func (v *Vector) SetNull(i int) {
	if v.Nulls == nil {
		v.nulls = Bitmap{words: zeroed(v.nulls.words, (v.n+63)/64)}
		v.Nulls = &v.nulls
	}
	v.Nulls.Set(i)
}

// FromValues builds a vector from a column of values: typed when every
// non-NULL value shares one Kind, boxed otherwise.
func FromValues(vals []value.Value) *Vector {
	out := NewVector(value.KindNull, len(vals))
	for i, x := range vals {
		out.put(i, x)
	}
	return out
}

// Batch is a set of equal-length column vectors with named columns — the
// columnar counterpart of engine.Relation.
type Batch struct {
	Cols []string
	Vecs []*Vector
	n    int
	// names resolves a name to a header position, and keep lists the
	// header positions of the columns (nil: column c is position c): a
	// projected batch resolves names against its relation's whole header.
	names sqlparse.Names
	keep  []int
}

// NewBatch assembles a batch. All vectors must share one length.
func NewBatch(cols []string, vecs []*Vector) *Batch {
	b := &Batch{Cols: cols, Vecs: vecs, names: sqlparse.NewNames(cols)}
	if len(vecs) > 0 {
		b.n = vecs[0].Len()
	}
	return b
}

// Len returns the row count.
func (b *Batch) Len() int { return b.n }

// ColIndex resolves a column name by the name rule (sqlparse.Names) to its
// column, or -1.
func (b *Batch) ColIndex(name string) int {
	i := b.names.Index(name)
	if i < 0 || b.keep == nil {
		return i
	}
	return slices.Index(b.keep, i)
}

// FromRows builds a batch from row-major values: FromRowsProjected over
// every column, as the benchmark's conversion layer times it. ok is always
// true.
func FromRows[R ~[]value.Value](cols []string, rows []R, workers int) (*Batch, bool) {
	keep := make([]int, len(cols))
	for i := range keep {
		keep[i] = i
	}
	return FromRowsProjected(cols, rows, keep, workers), true
}

// FromColumn builds column c's vector straight from row-major input, with
// no intermediate []value.Value: FromValues over the column, as the batch
// builders need it.
func FromColumn[R ~[]value.Value](rows []R, c int) *Vector {
	out := NewVector(value.KindNull, len(rows))
	for i, r := range rows {
		out.put(i, r[c])
	}
	return out
}

// FromRowsProjected builds a batch from the columns keep (indices into
// allCols) of row-major values: only those columns are decoded into
// vectors. Names resolve against allCols, as they would over the rows. Every row is as
// wide as allCols. Generic over the row type so the engine's
// []Row passes without reslicing.
func FromRowsProjected[R ~[]value.Value](allCols []string, rows []R, keep []int, workers int) *Batch {
	cols := make([]string, len(keep))
	vecs := make([]*Vector, len(keep))
	RunSpans(colSpans(len(keep), workers), func(w int, sp Span) error {
		for k := sp.Lo; k < sp.Hi; k++ {
			c := keep[k]
			cols[k] = allCols[c]
			vecs[k] = FromColumn(rows, c)
		}
		return nil
	})
	return &Batch{Cols: cols, Vecs: vecs, n: len(rows), names: sqlparse.NewNames(allCols), keep: keep}
}

// ToRows materializes the batch row-major.
func (b *Batch) ToRows() [][]value.Value {
	rows := make([][]value.Value, b.n)
	flat := make([]value.Value, b.n*len(b.Vecs))
	for i := range rows {
		row := flat[i*len(b.Vecs) : (i+1)*len(b.Vecs) : (i+1)*len(b.Vecs)]
		for c, v := range b.Vecs {
			row[c] = v.Value(i)
		}
		rows[i] = row
	}
	return rows
}
