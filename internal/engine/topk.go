package engine

import (
	"fmt"
	"math"

	"pushdowndb/internal/sqlparse"
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

// ServerSideTopK loads the whole table and selects the top K locally — the
// Fig. 9 baseline.
func (e *Exec) ServerSideTopK(table, orderCol string, k int, asc bool) (*Relation, error) {
	defer e.scope("server topk " + table).end(nil)
	rel, load, err := e.loadMetered("load "+table, e.NextStage(), Load{Table: table}, 1)
	if err != nil {
		return nil, err
	}
	// The cost model prices the paper's K-bounded heap, whose maintenance
	// grows with log K: an extra unit per row per factor-of-1024 of K
	// reflects the paper's K sensitivity.
	load.AddServerRows(int64(len(rel.Rows)) * int64(math.Log2(float64(k)+2)) / 10)
	return topK(rel, orderCol, k, asc)
}

// SamplingAlpha is Section VII-B's alpha, the fraction of a row's bytes the
// sampling phase returns (the ORDER BY column only), as the paper sets it.
const SamplingAlpha = 0.1

// SamplingTopKOptions tunes Section VII-A.
type SamplingTopKOptions struct {
	// SampleSize S; 0 derives the optimal size from the closed form using
	// SamplingAlpha and the row count N of the table's statistics object.
	// A table without a usable object has N = 0, and S is K.
	SampleSize int64
}

// SamplingTopK implements the two-phase sampling algorithm of Section
// VII-A: phase 1 samples S rows (projection of the order column with an
// early-terminating LIMIT scan) and takes the K-th value as a threshold;
// phase 2 scans with the threshold pushed to S3 and ranks the survivors.
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
		var n int64
		if ts := e.statsObject(table, stage1); ts != nil {
			n = ts.rows
		}
		sample = OptimalSampleSize(k, n, SamplingAlpha)
	}
	keys, err := e.parts(table)
	if err != nil {
		return nil, err
	}
	col := &sqlparse.Column{Name: orderCol}
	sampleScan := scanSelect([]sqlparse.SelectItem{{Expr: col}}, nil)
	sampleScan.Limit = max(sample/int64(len(keys)), 1) // about sample rows over all partitions
	sampled, err := e.selectMetered("sample "+table, stage1, table, e.db.request(table, sampleScan), 1)
	if err != nil {
		return nil, err
	}
	if int64(len(sampled.Rows)) < int64(k) {
		// The sample cannot bound the top K (tiny table or tiny sample):
		// degrade to the server-side algorithm for correctness.
		rel, err := e.selectMetered("full scan "+table, e.NextStage(), table, e.db.request(table, scanSelect(nil, nil)), 0)
		if err != nil {
			return nil, err
		}
		return topK(rel, orderCol, k, asc)
	}
	threshold, err := kthValue(sampled, sampled.Cols[0], k, asc)
	if err != nil {
		return nil, err
	}

	// Phase 2: threshold-filtered scan, then rank the survivors.
	stage2 := e.NextStage()
	op := sqlparse.OpLe
	if !asc {
		op = sqlparse.OpGe
	}
	scanned, err := e.selectMetered("threshold scan "+table, stage2, table,
		e.db.request(table, scanSelect(nil, &sqlparse.Binary{Op: op, L: col, R: threshold})), 1)
	if err != nil {
		return nil, err
	}
	return topK(scanned, orderCol, k, asc)
}

// kthValue returns the K-th smallest (asc) or largest (desc) non-NULL
// value of orderCol as the threshold predicate's literal: the last row of
// the column's top K.
func kthValue(rel *Relation, orderCol string, k int, asc bool) (*sqlparse.Literal, error) {
	top, err := topK(rel, orderCol, k, asc)
	if err != nil {
		return nil, err
	}
	if len(top.Rows) < k {
		return nil, fmt.Errorf("engine: sample of %d rows cannot provide the %d-th value", len(top.Rows), k)
	}
	return literal(top.Rows[k-1][rel.ColIndex(orderCol)].String()), nil
}

// topK is the hand operators' ranking, the server's sort and limit: the K
// first rows of rel by orderCol among those whose key is not NULL — a NULL
// ranks nowhere — ties in input order.
func topK(rel *Relation, orderCol string, k int, asc bool) (*Relation, error) {
	if rel.ColIndex(orderCol) < 0 {
		return nil, fmt.Errorf("engine: order column %q not in %v", orderCol, rel.Cols)
	}
	col := &sqlparse.Column{Name: orderCol}
	keyed, err := Operators{}.Filter(rel, &sqlparse.IsNull{X: col, Not: true})
	if err != nil {
		return nil, err
	}
	sorted, err := sortLocal(keyed, []sqlparse.OrderItem{{Expr: col, Desc: !asc}})
	if err != nil {
		return nil, err
	}
	return LimitLocal(sorted, k), nil
}
