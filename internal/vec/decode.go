package vec

import "pushdowndb/internal/value"

// FromStrings decodes CSV cells straight into typed column vectors: each
// cell goes through value.FromCSV exactly once (the same typing rule the
// row path's FromStringsN applies), then each column is laid out typed.
// ok is false for ragged input, which must keep the row path's
// short-row lookup semantics.
func FromStrings(cols []string, rows [][]string, workers int) (*Batch, bool) {
	for _, r := range rows {
		if len(r) != len(cols) {
			return nil, false
		}
	}
	vecs := make([]*Vector, len(cols))
	RunSpans(colSpans(len(cols), workers), func(w int, sp Span) error {
		for c := sp.Lo; c < sp.Hi; c++ {
			vals := make([]value.Value, len(rows))
			for i, r := range rows {
				vals[i] = value.FromCSV(r[c])
			}
			vecs[c] = FromValues(vals)
		}
		return nil
	})
	b := NewBatch(cols, vecs)
	if len(cols) == 0 {
		b.n = len(rows)
	}
	return b, true
}
