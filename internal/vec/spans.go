package vec

import "sync"

// The worker pool the bench-only converters (FromStrings, FromRows) split
// their columns across: workers own contiguous ascending ranges, so output
// is identical for every worker budget, including the sequential workers=1
// run. The engine starts no goroutine here: its parallelism is per
// partition.

// span is one worker's contiguous half-open range [Lo, Hi).
type span struct{ Lo, Hi int }

// spans partitions n columns into at most workers contiguous spans of
// near-equal size, in ascending order.
func spans(n, workers int) []span {
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
		sps = append(sps, span{Lo: lo, Hi: hi})
		lo = hi
	}
	return sps
}

// runSpans executes fn(sp) for every span, one goroutine per span. A single
// span runs inline.
func runSpans(sps []span, fn func(sp span)) {
	if len(sps) == 1 {
		fn(sps[0])
		return
	}
	var wg sync.WaitGroup
	for _, sp := range sps {
		wg.Add(1)
		go func(sp span) {
			defer wg.Done()
			fn(sp)
		}(sp)
	}
	wg.Wait()
}
