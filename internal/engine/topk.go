package engine

import (
	"cmp"
	"math"

	"pushdowndb/internal/sqlparse"
)

// Section VII: the sampling top-K, planned by hand.

// OptimalSampleSize evaluates the paper's closed form S = sqrt(K*N/alpha)
// (Section VII-B), where alpha is the fraction of row bytes the sampling
// phase needs (the ORDER BY columns only).
func OptimalSampleSize(k int, n int64, alpha float64) int64 {
	if k < 1 || n < 1 || alpha <= 0 {
		return int64(k)
	}
	return min(max(int64(math.Sqrt(float64(k)*float64(n)/alpha)), int64(k)), n)
}

// SamplingAlpha is Section VII-B's alpha, the fraction of a row's bytes the
// sampling phase returns (the ORDER BY column only), as the paper sets it.
const SamplingAlpha = 0.1

// SamplingTopK runs sql, ORDER BY ... LIMIT K over one table, as Section
// VII-A's two-phase algorithm at a sample size chosen by hand (0: S* from
// SamplingAlpha and the N of the table's statistics object, or K without
// one). Phase 1 reads the sort keys of the first sampleSize/partitions rows
// WHERE keeps in every partition. Phase 2 is the planner's topk-threshold
// tail planned from them (topKThreshold), with the planner's fallbacks to the
// plain filtered scan, so the answer is the statement's. A statement with no
// top-K to push is a KindBadRequest error saying why.
func (e *Exec) SamplingTopK(sql string, sampleSize int64) (*Relation, error) {
	sel, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	table := sel.Table
	switch kind, why := e.db.pushableShape(sel); {
	case len(sel.Joins) > 0 || len(sel.GroupBy) > 0 || sel.HasAggregates():
		return nil, forcedError(e.db, table, PushedTopK, "a join or grouped statement ranks no one table's rows")
	case kind != PushedTopK:
		return nil, forcedError(e.db, table, PushedTopK, cmp.Or(why, "no LIMIT: the statement keeps every row"))
	}
	defer e.scope("sampling topk " + table).end(nil)

	stage := e.NextStage()
	ts := e.statsObject(table, stage)
	var n int64 // the table's rows; 0 without a statistics object
	if ts != nil {
		n = ts.rows
	}
	if sampleSize <= 0 {
		sampleSize = OptimalSampleSize(int(sel.Limit), n, SamplingAlpha)
	}
	parts, err := e.parts(table)
	if err != nil {
		return nil, err
	}
	var keys []sqlparse.Expr
	for _, o := range orderByOverInput(sel) {
		keys = append(keys, o.Expr)
	}
	sample, err := e.selectMetered("sample "+table, stage, table, e.db.request(table, keyProbe(sel, keys, max(sampleSize/int64(len(parts)), 1))), 1)
	if err != nil {
		return nil, err
	}

	// A partition's first rows are no sample of the keys' classes: a class
	// they miss would order one way in storage and another on the server.
	// The planner's sample, the statistics object's, is checked too.
	ap := &AccessPlan{Strategy: StrategyFiltered, Reason: "forced: the threshold of a sample of the first rows"}
	var strided []Row
	if ts != nil {
		var st step
		strided, st, err = e.sampleSelect(ts, table, keyProbe(sel, keys, -1), stage)
		st.end(err)
	}
	if err != nil {
		ap.NotPushed = "the keys do not evaluate over the statistics sample: " + err.Error()
	} else if ap.NotPushed = e.db.topKThreshold(sel, keys, sample.Rows, strided, ap); ap.push != nil {
		// The sample's pass rate over the table: about K·N/S rows (§VII-B).
		ap.Pushed, ap.EstRows = PushedTopK, ap.push.estRows*max(n, int64(len(sample.Rows)))/int64(len(sample.Rows))
	}
	sc := &TableScan{Table: table, Alias: sel.Alias, Backend: e.db.store(table).Name(), req: e.db.request(table, pushedScan(sel, nil)), Access: ap}
	e.plan = &QueryPlan{Sel: sel, Scans: []*TableScan{sc}, exec: e}
	return e.runPlan(e.plan)
}
