package engine

import (
	"pushdowndb/internal/arena"
	"pushdowndb/internal/value"
	"pushdowndb/internal/vec"
)

// The server-side worker pool. The paper's compute node is a 32-core
// r4.8xlarge; pushdown only pays off against a server that is itself
// well-utilized, so row work (CSV value typing, top-K heaps, Bloom key
// extraction, join materialization, and — inside internal/vec — the
// operator kernels) partitions across a small pool governed by the cost
// model's Cores budget (cloudsim.Config.Workers, capped at Cores). Every
// user is deterministic: workers own contiguous ascending row ranges and
// partial results merge in worker order, so the output is byte-identical
// to the sequential (workers=1) run regardless of the budget.

// FromStringsN types CSV cells into a relation, the value typing
// partitioned across workers goroutines (the loader's decode work). Every
// row is as wide as cols (see value.CSVCell). Each worker's rows are windows
// of one array sized to its span's cells.
func FromStringsN(cols []string, rows [][]string, workers int) *Relation {
	rel := &Relation{Cols: cols}
	rel.Rows = make([]Row, len(rows))
	_ = vec.RunSpans(vec.RowSpans(len(rows), workers), func(w int, sp vec.Span) error {
		var slab arena.Slab[value.Value]
		slab.Grow((sp.Hi - sp.Lo) * len(cols))
		for i := sp.Lo; i < sp.Hi; i++ {
			row := slab.Make(len(cols))
			for j := range row {
				row[j] = value.CSVCell(rows[i], j)
			}
			rel.Rows[i] = row
		}
		return nil
	})
	return rel
}
