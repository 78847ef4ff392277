package harness

import (
	"context"
	"errors"

	"pushdowndb/internal/engine"
	"pushdowndb/internal/s3api"
	"pushdowndb/internal/selectengine"
)

// listing2SQL is the paper's Listing-2 evaluation query,
//
//	SELECT SUM(o_totalprice) FROM customer, orders
//	WHERE o_custkey = c_custkey
//	  AND c_acctbal <= upper_c_acctbal
//	  AND o_orderdate < upper_o_orderdate
//
// as the SQL front end and Exec.Join take it, counting the joined rows beside
// the sum; upperOrderdate "" leaves orders unfiltered.
func listing2SQL(upperAcctbal, upperOrderdate string) string {
	sql := "SELECT SUM(o.o_totalprice) AS total, COUNT(*) AS n " +
		"FROM customer c JOIN orders o ON c.c_custkey = o.o_custkey " +
		"WHERE c.c_acctbal <= " + upperAcctbal
	if upperOrderdate != "" {
		sql += " AND o.o_orderdate < '" + upperOrderdate + "'"
	}
	return sql
}

// listing2 is a series' call of a Listing-2 statement under one Section-V
// algorithm, its Bloom filter at fpr and seed 2.
func listing2(db *engine.DB, sql, algorithm string, fpr float64) call {
	return joinCall(db, engine.JoinSpec{SQL: sql, TargetFPR: fpr, Seed: 2}, algorithm)
}

// joinCall is a series' call of js under one Section-V algorithm.
func joinCall(db *engine.DB, js engine.JoinSpec, algorithm string) call {
	return op(db, func(e *engine.Exec) (*engine.Relation, error) { return e.Join(js, algorithm) })
}

// loosestAcctbal is the loosest Fig. 2 customer filter: the least selective
// build side, where the bloom-vs-baseline decision is closest.
var loosestAcctbal = Fig2Acctbals[len(Fig2Acctbals)-1]

// planned is the note of a series that ran (or only planned) listing2SQL:
// the series is named after the strategy the planner chose for the one
// join, the extras carry its code (bloom 1, baseline 0) and, on request,
// the two runtime estimates it chose between.
func planned(estimates bool) note {
	return func(e *engine.Exec, _ *engine.Relation) (string, map[string]float64, error) {
		plan := e.QueryPlan()
		if plan == nil || len(plan.Steps) != 1 {
			return "", nil, errors.New("no one-join plan")
		}
		step := plan.Steps[0]
		extra := map[string]float64{"bloom": 0}
		if step.Strategy == engine.StrategyBloom {
			extra["bloom"] = 1
		}
		if estimates {
			extra["baseline_est"] = step.Estimates[engine.StrategyBaseline].Seconds
			extra["bloom_est"] = step.Estimates[engine.StrategyBloom].Seconds
		}
		return " (" + step.Strategy + ")", extra, nil
	}
}

// joinSeries is Section V's three algorithms over sql.
func joinSeries(db *engine.DB, sql string) []series {
	return []series{
		{name: "Baseline Join", run: listing2(db, sql, engine.StrategyBaseline, 0.01)},
		{name: "Filtered Join", run: listing2(db, sql, engine.StrategyFiltered, 0.01)},
		{name: "Bloom Join", run: listing2(db, sql, engine.StrategyBloom, 0.01)},
	}
}

// Fig2Acctbals is the paper's customer-selectivity sweep.
var Fig2Acctbals = []string{"-950", "-850", "-750", "-650", "-550", "-450"}

// RunFig2 reproduces Fig. 2: the three join algorithms as the customer
// filter (c_acctbal <= X) loosens. The orders side is unfiltered.
func RunFig2(ctx context.Context, env *Env) (*Result, error) {
	res := &Result{
		ID:     "Fig2",
		Title:  "Join algorithms vs customer selectivity (c_acctbal <= ?)",
		XLabel: "c_acctbal <=",
	}
	return res.sweep(ctx, env.TPCH(), Fig2Acctbals, func(db *engine.DB, i int) ([]series, check) {
		return joinSeries(db, listing2SQL(Fig2Acctbals[i], "")), sameRows
	})
}

// Fig3Orderdates is the paper's orders-selectivity sweep ("None" = no
// orders filter).
var Fig3Orderdates = []string{"1992-03-01", "1992-06-01", "1993-01-01", "1994-01-01", "1995-01-01", "None"}

// RunFig3 reproduces Fig. 3: the join algorithms as the orders filter
// (o_orderdate < D) loosens, with the customer filter fixed at -950.
func RunFig3(ctx context.Context, env *Env) (*Result, error) {
	res := &Result{
		ID:     "Fig3",
		Title:  "Join algorithms vs orders selectivity (o_orderdate < ?)",
		XLabel: "o_orderdate <",
	}
	return res.sweep(ctx, env.TPCH(), Fig3Orderdates, func(db *engine.DB, i int) ([]series, check) {
		date := Fig3Orderdates[i]
		if date == "None" {
			date = ""
		}
		return joinSeries(db, listing2SQL("-950", date)), sameRows
	})
}

// Fig4FPRs is the paper's Bloom-filter false-positive-rate sweep.
var Fig4FPRs = []float64{0.0001, 0.001, 0.01, 0.1, 0.3, 0.5}

// RunFig4 reproduces Fig. 4: Bloom join across false-positive rates, with
// baseline and filtered joins as flat references. Customer filter fixed at
// -950, orders unfiltered.
func RunFig4(ctx context.Context, env *Env) (*Result, error) {
	res := &Result{
		ID:     "Fig4",
		Title:  "Bloom join vs false positive rate",
		XLabel: "FPR",
	}
	return res.sweep(ctx, env.TPCH(), labels("%g", Fig4FPRs), func(db *engine.DB, i int) ([]series, check) {
		// The two references do not depend on x; on the virtual clock
		// re-measuring them at every x reports the same flat lines.
		return []series{
			{name: "Baseline Join", run: listing2(db, listing2SQL("-950", ""), engine.StrategyBaseline, 0.01)},
			{name: "Filtered Join", run: listing2(db, listing2SQL("-950", ""), engine.StrategyFiltered, 0.01)},
			{name: "Bloom Join", run: listing2(db, listing2SQL("-950", ""), engine.StrategyBloom, Fig4FPRs[i]),
				note: func(e *engine.Exec, _ *engine.Relation) (string, map[string]float64, error) {
					_, _, returned, _ := e.Metrics.Totals()
					return "", map[string]float64{"returnedMB": float64(returned) / 1e6}, nil
				}},
		}, sameRows
	})
}

// RunFig4Bitwise is the Suggestion-3 ablation: the '0'/'1'-string Bloom
// predicate (the paper's encoding) vs the BLOOM_CONTAINS bitwise form at
// the same FPR.
func RunFig4Bitwise(ctx context.Context, env *Env) (*Result, error) {
	res := &Result{
		ID:     "Fig4-S3",
		Title:  "Bloom predicate encoding: '0'/'1' string vs bitwise (Suggestion 3)",
		XLabel: "FPR",
	}
	// The bitwise predicate needs a storage side that supports
	// BLOOM_CONTAINS: ask for a backend advertising the capability.
	bitwiseS3 := env.TPCH(s3api.WithCapabilities(selectengine.Capabilities{AllowBloomContains: true}))
	fprs := []float64{0.0001, 0.01, 0.3}
	return res.sweep(ctx, bitwiseS3, labels("%g", fprs), func(db *engine.DB, i int) ([]series, check) {
		js := engine.JoinSpec{SQL: listing2SQL("-950", ""), TargetFPR: fprs[i], Seed: 2}
		bitwise := js
		bitwise.Bitwise = true
		return []series{
			{name: "String Bloom", run: joinCall(db, js, engine.StrategyBloom)},
			{name: "Bitwise Bloom", run: joinCall(db, bitwise, engine.StrategyBloom)},
		}, sameRows
	})
}
