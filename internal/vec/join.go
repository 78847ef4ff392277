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
//
// The build side is one chained hash table, not a list per key: head maps a
// hash to its first build row plus one, next links a row to the next with
// its hash (-1 ends a chain), linked last to first so chains ascend.
func JoinPairs(build, probe *Vector, workers int) (bi, pi []int) {
	n := build.Len()
	hashes := make([]uint64, n)
	_ = RunSpans(RowSpans(n, workers), func(_ int, sp Span) error {
		for i := sp.Lo; i < sp.Hi; i++ {
			if !build.IsNull(i) {
				hashes[i] = build.Value(i).Hash()
			}
		}
		return nil
	})
	head, next := make(map[uint64]int, n), make([]int, n)
	for i := n - 1; i >= 0; i-- {
		if !build.IsNull(i) {
			next[i] = head[hashes[i]] - 1
			head[hashes[i]] = i + 1
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
			for i := head[pv.Hash()] - 1; i >= 0; i = next[i] {
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
