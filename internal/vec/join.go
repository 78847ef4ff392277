package vec

import (
	"pushdowndb/internal/value"
)

// JoinPairs runs the hash-join build+probe kernel over two key vectors
// and returns the matched (build, probe) index pairs in the row path's
// exact output order: probe rows ascending, and for each probe row its
// build matches ascending. Hashing and equality go through the same
// value.Hash/value.Equal the row path uses, so hash collisions and
// numeric-vs-string key coercions behave identically.
func JoinPairs(build, probe *Vector, workers int) (bi, pi []int) {
	buildSpans := RowSpans(build.Len(), workers)
	partMaps := make([]map[uint64][]int, len(buildSpans))
	_ = RunSpans(buildSpans, func(w int, sp Span) error {
		m := map[uint64][]int{}
		for i := sp.Lo; i < sp.Hi; i++ {
			if build.IsNull(i) {
				continue
			}
			h := build.Value(i).Hash()
			m[h] = append(m[h], i)
		}
		partMaps[w] = m
		return nil
	})
	table := map[uint64][]int{}
	if len(partMaps) > 0 {
		table = partMaps[0]
		for _, m := range partMaps[1:] {
			// Deterministic despite map iteration: per-worker index lists are
			// ascending and merge in span order, so table[h] is ascending
			// regardless of which key merges first (same argument as the row
			// path's build merge).
			//lint:ignore mapdeterminism per-key append order is fixed by the worker-span order, not the map order
			for h, idxs := range m {
				table[h] = append(table[h], idxs...)
			}
		}
	}
	sps := RowSpans(probe.Len(), workers)
	type pair struct{ b, p int }
	parts := make([][]pair, len(sps))
	_ = RunSpans(sps, func(w int, sp Span) error {
		for p := sp.Lo; p < sp.Hi; p++ {
			if probe.IsNull(p) {
				continue
			}
			pv := probe.Value(p)
			for _, i := range table[pv.Hash()] {
				if value.Equal(build.Value(i), pv) {
					parts[w] = append(parts[w], pair{b: i, p: p})
				}
			}
		}
		return nil
	})
	total := 0
	for _, ps := range parts {
		total += len(ps)
	}
	bi = make([]int, 0, total)
	pi = make([]int, 0, total)
	for _, ps := range parts {
		for _, pr := range ps {
			bi = append(bi, pr.b)
			pi = append(pi, pr.p)
		}
	}
	return bi, pi
}
