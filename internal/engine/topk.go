package engine

import (
	"container/heap"
	"fmt"
	"math"
	"sort"

	"pushdowndb/internal/value"
	"pushdowndb/internal/vec"
)

// Section VII: top-K algorithms.

// OptimalSampleSize evaluates the paper's closed form S = sqrt(K*N/alpha)
// (Section VII-B), where alpha is the fraction of row bytes the sampling
// phase needs (the ORDER BY columns only).
func OptimalSampleSize(k int, n int64, alpha float64) int64 {
	if k < 1 || n < 1 || alpha <= 0 {
		return int64(k)
	}
	s := int64(math.Sqrt(float64(k) * float64(n) / alpha))
	if s < int64(k) {
		s = int64(k)
	}
	if s > n {
		s = n
	}
	return s
}

// ServerSideTopK loads the whole table and selects the top K locally with
// a bounded heap — the Fig. 9 baseline.
func (e *Exec) ServerSideTopK(table, orderCol string, k int, asc bool) (*Relation, error) {
	defer e.scope("server topk " + table).end(nil)
	rel, load, err := e.loadMetered("load "+table, e.NextStage(), Load{Table: table}, 1)
	if err != nil {
		return nil, err
	}
	// Heap maintenance grows with log K; charge an extra unit per row per
	// factor-of-1024 of K to reflect the paper's K sensitivity.
	load.AddServerRows(int64(len(rel.Rows)) * int64(math.Log2(float64(k)+2)) / 10)
	return topKLocalN(rel, orderCol, k, asc, e.workers())
}

// SamplingAlpha is Section VII-B's alpha, the fraction of a row's bytes the
// sampling phase returns (the ORDER BY column only), as the paper sets it.
const SamplingAlpha = 0.1

// SamplingTopKOptions tunes Section VII-A.
type SamplingTopKOptions struct {
	// SampleSize S; 0 derives the optimal size from the closed form using
	// SamplingAlpha and the table's (approximate) row count.
	SampleSize int64
}

// SamplingTopK implements the two-phase sampling algorithm of Section
// VII-A: phase 1 samples S rows (projection of the order column with an
// early-terminating LIMIT scan) and takes the K-th value as a threshold;
// phase 2 scans with the threshold pushed to S3 and finishes on a heap.
// The threshold guarantees at least K qualifying rows because the sample
// is a subset of the table.
func (e *Exec) SamplingTopK(table, orderCol string, k int, asc bool, opts SamplingTopKOptions) (*Relation, error) {
	if k < 1 {
		return nil, fmt.Errorf("engine: top-K requires K >= 1")
	}
	sample := opts.SampleSize
	defer e.scope("sampling topk " + table).end(nil)

	// Phase 1: sample the order column.
	stage1 := e.NextStage()
	if sample <= 0 {
		n, err := e.approxRowCount(stage1, table)
		if err != nil {
			return nil, err
		}
		sample = OptimalSampleSize(k, n, SamplingAlpha)
	}
	sql, err := e.limitPerPart(table, "SELECT "+orderCol+" FROM S3Object", sample)
	if err != nil {
		return nil, err
	}
	sampled, err := e.selectMetered("sample "+table, stage1, table, sql, 1)
	if err != nil {
		return nil, err
	}
	if int64(len(sampled.Rows)) < int64(k) {
		// The sample cannot bound the top K (tiny table or tiny sample):
		// degrade to the server-side algorithm for correctness.
		rel, err := e.SelectRows("full scan "+table, e.NextStage(), table, "SELECT * FROM S3Object")
		if err != nil {
			return nil, err
		}
		return topKLocalN(rel, orderCol, k, asc, e.workers())
	}
	threshold, err := kthValue(sampled, sampled.Cols[0], k, asc)
	if err != nil {
		return nil, err
	}

	// Phase 2: threshold-filtered scan, then a heap over the survivors.
	stage2 := e.NextStage()
	op := "<="
	if !asc {
		op = ">="
	}
	scanned, err := e.selectMetered("threshold scan "+table, stage2, table,
		fmt.Sprintf("SELECT * FROM S3Object WHERE %s %s %s", orderCol, op, threshold), 1)
	if err != nil {
		return nil, err
	}
	return topKLocalN(scanned, orderCol, k, asc, e.workers())
}

// approxRowCount estimates the table's row count from one partition's
// average row width — a tiny metered probe, not a full scan.
func (e *Exec) approxRowCount(stage int, table string) (_ int64, err error) {
	keys, err := e.parts(table)
	if err != nil {
		return 0, err
	}
	backend := e.db.backendFor(table)
	// The per-partition size probes are priced requests (S3 HEADs) like
	// everything else this estimate costs; they meter as zero-byte GETs on
	// the step the row probe below runs on.
	st := e.step("probe "+table, "probe "+table, stage, table)
	defer func() { st.end(err) }()
	var totalBytes int64
	for _, k := range keys {
		n, err := backend.Size(e.ctx, e.db.bucket, k)
		if err != nil {
			return 0, err
		}
		st.AddGetRequest(0)
		totalBytes += n
	}
	const probeRows = 64
	sql, err := e.limitPerPart(table, "SELECT * FROM S3Object", probeRows*int64(len(keys)))
	if err != nil {
		return 0, err
	}
	probe, _, err := e.selectDecoded(st, table, sql, false)
	if err != nil {
		return 0, err
	}
	if len(probe.Rows) == 0 {
		return 0, nil
	}
	var w int64
	for _, r := range probe.Rows {
		for _, v := range r {
			w += int64(len(v.String())) + 1
		}
	}
	avg := float64(w) / float64(len(probe.Rows))
	return int64(float64(totalBytes) / avg), nil
}

// kthValue returns the K-th smallest (asc) or largest (desc) non-NULL
// value of orderCol, rendered as a SQL literal for the threshold
// predicate: the last row of the column's top K.
func kthValue(rel *Relation, orderCol string, k int, asc bool) (string, error) {
	top, err := topKLocal(rel, orderCol, k, asc)
	if err != nil {
		return "", err
	}
	if len(top.Rows) < k {
		return "", fmt.Errorf("engine: sample of %d rows cannot provide the %d-th value", len(top.Rows), k)
	}
	return sqlLiteral(top.Rows[k-1][rel.ColIndex(orderCol)].String()), nil
}

// topKLocal selects the top K rows of rel ordered by orderCol.
func topKLocal(rel *Relation, orderCol string, k int, asc bool) (*Relation, error) {
	return topKLocalN(rel, orderCol, k, asc, 1)
}

// topKLocalN selects the top K rows with the heap work partitioned across
// workers goroutines: each worker keeps a K-bounded heap over its own row
// range, and the per-partition survivors merge through one final K-heap.
// Rows are ordered by (key, original row index) — a total order — so the
// selected set and its output order are identical for every worker count,
// including ties on the order column.
func topKLocalN(rel *Relation, orderCol string, k int, asc bool, workers int) (*Relation, error) {
	idx := rel.ColIndex(orderCol)
	if idx < 0 {
		return nil, fmt.Errorf("engine: order column %q not in %v", orderCol, rel.Cols)
	}
	sps := vec.RowSpans(len(rel.Rows), workers)
	parts := make([][]topRow, len(sps))
	_ = vec.RunSpans(sps, func(w int, sp vec.Span) error {
		h := &topRowHeap{col: idx, asc: asc}
		for i := sp.Lo; i < sp.Hi; i++ {
			r := rel.Rows[i]
			if r[idx].IsNull() {
				continue
			}
			h.offer(topRow{idx: i, row: r}, k)
		}
		parts[w] = h.rows
		return nil
	})
	// Merge: the global top K under the total order is contained in the
	// union of the per-partition top Ks.
	final := &topRowHeap{col: idx, asc: asc}
	for _, rows := range parts {
		for _, tr := range rows {
			final.offer(tr, k)
		}
	}
	sort.Slice(final.rows, func(a, b int) bool {
		return final.before(final.rows[a], final.rows[b])
	})
	out := &Relation{Cols: rel.Cols, Rows: make([]Row, len(final.rows))}
	for i, tr := range final.rows {
		out.Rows[i] = tr.row
	}
	return out, nil
}

// topRow pairs a candidate row with its original index, the tie-breaker
// that makes the top-K selection a total order.
type topRow struct {
	idx int
	row Row
}

// topRowHeap keeps the K best topRows under (key, index) order: a max-heap
// of the kept set, rooted at the worst kept row.
type topRowHeap struct {
	rows []topRow
	col  int
	asc  bool
}

// before reports whether a outranks b: smaller key first when ascending,
// larger first when descending, earlier row index on key ties.
func (h *topRowHeap) before(a, b topRow) bool {
	c := value.Compare(a.row[h.col], b.row[h.col])
	if !h.asc {
		c = -c
	}
	if c != 0 {
		return c < 0
	}
	return a.idx < b.idx
}

// offer adds tr if the heap holds fewer than k rows or tr outranks the
// worst kept row.
func (h *topRowHeap) offer(tr topRow, k int) {
	if len(h.rows) < k {
		heap.Push(h, tr)
		return
	}
	if k > 0 && h.before(tr, h.rows[0]) {
		h.rows[0] = tr
		heap.Fix(h, 0)
	}
}

func (h *topRowHeap) Len() int           { return len(h.rows) }
func (h *topRowHeap) Less(i, j int) bool { return h.before(h.rows[j], h.rows[i]) } // max-heap
func (h *topRowHeap) Swap(i, j int)      { h.rows[i], h.rows[j] = h.rows[j], h.rows[i] }
func (h *topRowHeap) Push(x any)         { h.rows = append(h.rows, x.(topRow)) }
func (h *topRowHeap) Pop() (out any) {
	out, h.rows = h.rows[len(h.rows)-1], h.rows[:len(h.rows)-1]
	return
}
