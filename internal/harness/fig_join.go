package harness

import (
	"context"
	"errors"

	"pushdowndb/internal/engine"
	"pushdowndb/internal/s3api"
	"pushdowndb/internal/selectengine"
)

// The paper's Listing-2 evaluation query:
//
//	SELECT SUM(o_totalprice) FROM customer, orders
//	WHERE o_custkey = c_custkey
//	  AND c_acctbal <= upper_c_acctbal
//	  AND o_orderdate < upper_o_orderdate
//
// joinAggItems is its select list for the operator API; joinCountItems also
// counts the joined rows (Figs. 2 and 3, the planner's series).
const (
	joinAggItems   = "SUM(o_totalprice) AS total"
	joinCountItems = joinAggItems + ", COUNT(*) AS n"
)

func listing2Spec(upperAcctbal string, upperOrderdate string, fpr float64) engine.JoinSpec {
	js := engine.JoinSpec{
		LeftTable: "customer", RightTable: "orders",
		LeftKey: "c_custkey", RightKey: "o_custkey",
		LeftFilter:  "c_acctbal <= " + upperAcctbal,
		LeftProject: []string{"c_custkey"},
		TargetFPR:   fpr,
		Seed:        2,
	}
	if upperOrderdate != "" {
		js.RightFilter = "o_orderdate < '" + upperOrderdate + "'"
	}
	return js
}

// listing2 is a series' call of the Listing-2 join under one algorithm
// ("baseline", "filtered", "bloom").
func listing2(db *engine.DB, js engine.JoinSpec, algorithm, items string) call {
	return op(db, func(e *engine.Exec) (*engine.Relation, error) { return e.JoinAggregate(js, algorithm, items) })
}

// listing2SQL is Listing 2 (orders unfiltered) as the SQL front end takes
// it, for the figures that watch the planner choose the algorithm.
func listing2SQL(upperAcctbal string) string {
	return "SELECT SUM(o.o_totalprice) AS total, COUNT(*) AS n " +
		"FROM customer c JOIN orders o ON c.c_custkey = o.o_custkey " +
		"WHERE c.c_acctbal <= " + upperAcctbal
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

// joinSeries is Section V's three algorithms over js, each counting the
// joined rows beside the sum.
func joinSeries(db *engine.DB, js engine.JoinSpec) []series {
	return []series{
		{name: "Baseline Join", run: listing2(db, js, "baseline", joinCountItems)},
		{name: "Filtered Join", run: listing2(db, js, "filtered", joinCountItems)},
		{name: "Bloom Join", run: listing2(db, js, "bloom", joinCountItems)},
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
		return joinSeries(db, listing2Spec(Fig2Acctbals[i], "", 0.01)), sameRows
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
		return joinSeries(db, listing2Spec("-950", date, 0.01)), sameRows
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
			{name: "Baseline Join", run: listing2(db, listing2Spec("-950", "", 0.01), "baseline", joinAggItems)},
			{name: "Filtered Join", run: listing2(db, listing2Spec("-950", "", 0.01), "filtered", joinAggItems)},
			{name: "Bloom Join", run: listing2(db, listing2Spec("-950", "", Fig4FPRs[i]), "bloom", joinAggItems),
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
		js := listing2Spec("-950", "", fprs[i])
		bitwise := js
		bitwise.Bitwise = true
		return []series{
			{name: "String Bloom", run: listing2(db, js, "bloom", joinAggItems)},
			{name: "Bitwise Bloom", run: listing2(db, bitwise, "bloom", joinAggItems)},
		}, sameRows
	})
}
