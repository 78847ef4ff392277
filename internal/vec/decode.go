package vec

import (
	"fmt"

	"pushdowndb/internal/colformat"
	"pushdowndb/internal/value"
)

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

// FromColumnar decodes a colformat object (the paper's Fig. 11 columnar
// layout) into vectors without ever materializing rows: each column's
// chunks decode directly into one typed payload slice.
func FromColumnar(data []byte, workers int) (*Batch, error) {
	r, err := colformat.Open(data)
	if err != nil {
		return nil, err
	}
	schema := r.Schema()
	cols := make([]string, len(schema))
	for i, c := range schema {
		cols[i] = c.Name
	}
	vecs := make([]*Vector, len(schema))
	n := int(r.NumRows())
	err = RunSpans(colSpans(len(schema), workers), func(w int, sp Span) error {
		for c := sp.Lo; c < sp.Hi; c++ {
			vals := make([]value.Value, 0, n)
			for g := 0; g < r.NumRowGroups(); g++ {
				chunk, _, err := r.ReadColumn(g, c)
				if err != nil {
					return err
				}
				vals = append(vals, chunk...)
			}
			if len(vals) != n {
				return fmt.Errorf("vec: column %q decoded %d rows, footer says %d", cols[c], len(vals), n)
			}
			vecs[c] = FromValues(vals)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	b := NewBatch(cols, vecs)
	b.n = n
	return b, nil
}
