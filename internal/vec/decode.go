package vec

import (
	"fmt"

	"pushdowndb/internal/csvx"
	"pushdowndb/internal/value"
)

// FromStrings decodes CSV cells straight into typed column vectors, the
// columns split across workers. Each cell goes through value.FromCSV exactly
// once and its payload is written once, into the column's []int64, []float64
// or []string; only a column that mixes kinds is boxed. Text cells share the
// input's bytes. Every row is as wide as cols (value.CSVCell).
func FromStrings(cols []string, rows [][]string, workers int) *Batch {
	b := csvBatch(cols, len(rows))
	RunSpans(colSpans(len(cols), workers), func(w int, sp Span) error {
		for i, r := range rows {
			b.putRow(i, r, sp.Lo, sp.Hi)
		}
		return nil
	})
	return b
}

// FromCSV is FromStrings over a select response's CSV body (a line per row,
// no header line), with no row in between: what a grouped scan folds. It
// sizes the vectors for the rows claimed, as far as the body can hold them
// (csvx.RowBound), and fails unless the body holds exactly that many.
func FromCSV(cols []string, body []byte, rows int64) (*Batch, error) {
	n := csvx.RowBound(body, len(cols), rows)
	b := csvBatch(cols, n)
	sc := csvx.NewScanner(body)
	i := 0
	for ; i < n && sc.Scan(); i++ {
		b.putRow(i, sc.Fields(), 0, len(cols))
	}
	if i != n || int64(n) != rows || sc.Scan() || sc.Err() != nil {
		return nil, fmt.Errorf("vec: a %d-byte response body is not the %d rows its stats claim", len(body), rows)
	}
	return b, nil
}

// csvBatch is an n-row batch of untyped columns for putRow to fill.
func csvBatch(cols []string, n int) *Batch {
	vecs := make([]*Vector, len(cols))
	for c := range vecs {
		vecs[c] = NewVector(value.KindNull, n)
	}
	b := NewBatch(cols, vecs)
	b.n = n
	return b
}

// putRow types row i's cells of columns [lo, hi): the one column-builder
// step of every CSV decode, so FromStrings and FromCSV cannot disagree.
func (b *Batch) putRow(i int, fields []string, lo, hi int) {
	for c := lo; c < hi; c++ {
		b.Vecs[c].put(i, value.CSVCell(fields, c))
	}
}
