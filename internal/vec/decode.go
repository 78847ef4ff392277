package vec

import "pushdowndb/internal/value"

// FromStrings decodes a select response's CSV cells straight into typed
// column vectors — what a grouped scan folds, with no row of values in
// between. Each cell goes through value.FromCSV exactly once (the typing
// rule the row path's FromStringsN applies) and its payload is written
// once, into the column's []int64, []float64 or []string; only a column
// that mixes kinds is boxed. Text cells share the response's bytes. Every
// row is as wide as cols (value.CSVCell).
func FromStrings(cols []string, rows [][]string, workers int) *Batch {
	vecs := make([]*Vector, len(cols))
	RunSpans(colSpans(len(cols), workers), func(w int, sp Span) error {
		for c := sp.Lo; c < sp.Hi; c++ {
			vecs[c] = NewVector(value.KindNull, len(rows), nil)
			for i, r := range rows {
				vecs[c].put(i, value.CSVCell(r, c))
			}
		}
		return nil
	})
	b := NewBatch(cols, vecs)
	b.n = len(rows)
	return b
}
