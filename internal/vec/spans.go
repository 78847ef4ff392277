package vec

import "sync"

// The worker pool every parallel row loop runs on, here and in the engine:
// workers own contiguous ascending ranges and partial results merge in
// worker order, so output (and the first error surfaced) is identical for
// every worker budget, including the sequential workers=1 run.

// Span is one worker's contiguous half-open range [Lo, Hi).
type Span struct{ Lo, Hi int }

// RowSpans partitions n rows into at most workers contiguous spans of
// near-equal size, in ascending row order.
func RowSpans(n, workers int) []Span {
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	if n == 0 {
		return nil
	}
	sps := make([]Span, 0, workers)
	per := n / workers
	extra := n % workers // the first `extra` spans get one more row
	lo := 0
	for w := 0; w < workers; w++ {
		hi := lo + per
		if w < extra {
			hi++
		}
		sps = append(sps, Span{Lo: lo, Hi: hi})
		lo = hi
	}
	return sps
}

// colSpans partitions column indexes across workers (column-parallel
// decode and conversion).
func colSpans(cols, workers int) []Span { return RowSpans(cols, workers) }

// RunSpans executes fn(w, span) for every span, one goroutine per span, and
// returns the first error in span order. A single span runs inline.
func RunSpans(sps []Span, fn func(w int, sp Span) error) error {
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
