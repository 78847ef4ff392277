package vec

import (
	"pushdowndb/internal/sqlparse"
	"pushdowndb/internal/value"
)

// FromStrings decodes CSV cells straight into typed column vectors, the
// columns split across workers. Each cell goes through value.FromCSV exactly
// once and its payload is written once, into the column's []int64, []float64
// or []string; only a column that mixes kinds is boxed. Text cells share the
// input's bytes. Every row is as wide as cols (value.CSVCell).
func FromStrings(cols []string, rows [][]string, workers int) *Batch {
	b := &Batch{Cols: cols, Vecs: make([]*Vector, len(cols)), n: len(rows), names: sqlparse.NewNames(cols)}
	runSpans(spans(len(cols), workers), func(sp span) {
		for c := sp.Lo; c < sp.Hi; c++ {
			b.Vecs[c] = NewVector(value.KindNull, len(rows))
			for i, r := range rows {
				b.Vecs[c].put(i, value.CSVCell(r, c))
			}
		}
	})
	return b
}
