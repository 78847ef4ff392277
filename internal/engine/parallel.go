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

// FromStringsN is FromStrings with the per-cell CSV value typing
// partitioned across workers goroutines (the loader's decode work). Each
// worker's rows are windows of one array sized to its span's cells.
func FromStringsN(cols []string, rows [][]string, workers int) *Relation {
	rel := &Relation{Cols: cols}
	rel.Rows = make([]Row, len(rows))
	_ = vec.RunSpans(vec.RowSpans(len(rows), workers), func(w int, sp vec.Span) error {
		cells := 0
		for _, r := range rows[sp.Lo:sp.Hi] {
			cells += len(r)
		}
		var slab arena.Slab[value.Value]
		slab.Grow(cells)
		for i := sp.Lo; i < sp.Hi; i++ {
			row := slab.Make(len(rows[i]))
			for j, f := range rows[i] {
				row[j] = value.FromCSV(f)
			}
			rel.Rows[i] = row
		}
		return nil
	})
	return rel
}
