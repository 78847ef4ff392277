package engine

import (
	"sync"

	"pushdowndb/internal/value"
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

// span is one worker's contiguous half-open row range [lo, hi).
type span struct{ lo, hi int }

// rowSpans partitions n rows into at most workers contiguous spans of
// near-equal size, in ascending row order.
func rowSpans(n, workers int) []span {
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	if n == 0 {
		return nil
	}
	sps := make([]span, 0, workers)
	per := n / workers
	extra := n % workers // the first `extra` spans get one more row
	lo := 0
	for w := 0; w < workers; w++ {
		hi := lo + per
		if w < extra {
			hi++
		}
		sps = append(sps, span{lo: lo, hi: hi})
		lo = hi
	}
	return sps
}

// runSpans executes fn(w, span) for every span, one worker goroutine per
// span, and returns the first error. A single span runs inline.
func runSpans(sps []span, fn func(w int, sp span) error) error {
	if len(sps) == 0 {
		return nil
	}
	if len(sps) == 1 {
		return fn(0, sps[0])
	}
	errs := make([]error, len(sps))
	var wg sync.WaitGroup
	for w := range sps {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = fn(w, sps[w])
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// FromStringsN is FromStrings with the per-cell CSV value typing
// partitioned across workers goroutines (the loader's decode work).
func FromStringsN(cols []string, rows [][]string, workers int) *Relation {
	rel := &Relation{Cols: cols}
	rel.Rows = make([]Row, len(rows))
	_ = runSpans(rowSpans(len(rows), workers), func(w int, sp span) error {
		for i := sp.lo; i < sp.hi; i++ {
			row := make(Row, len(rows[i]))
			for j, f := range rows[i] {
				row[j] = value.FromCSV(f)
			}
			rel.Rows[i] = row
		}
		return nil
	})
	return rel
}
