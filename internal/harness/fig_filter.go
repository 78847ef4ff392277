package harness

import (
	"context"
	"fmt"
	"math"

	"pushdowndb/internal/engine"
	"pushdowndb/internal/tpch"
)

// Fig1Selectivities is the paper's x-axis: 1e-7 .. 1e-2.
var Fig1Selectivities = []float64{1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2}

// fig1Threshold is the order key T for which "l_orderkey <= T" selects the
// fraction sel of lineitem: the keys are dense and uniform.
func fig1Threshold(env *Env, sel float64) int {
	return max(int(math.Ceil(sel*float64(tpch.SizesFor(env.Scale.TPCHSF).Orders))), 1)
}

// fig1SQL is Fig. 1's statement at selectivity sel.
func fig1SQL(env *Env, sel float64) string {
	return fmt.Sprintf("SELECT * FROM lineitem WHERE l_orderkey <= %d", fig1Threshold(env, sel))
}

// indexing is Section IV-A's strategy over the l_orderkey index: sql's rows
// fetched one GET per row or in one multi-range GET per partition.
func indexing(db *engine.DB, sql string, opts engine.IndexFilterOptions) call {
	return op(db, func(e *engine.Exec) (*engine.Relation, error) { return e.IndexFilter(sql, opts) })
}

// RunFig1 reproduces Fig. 1: runtime and cost of the three filter
// strategies (server-side, S3-side, indexing) as selectivity grows. The
// filter is a range predicate over lineitem's order key, whose dense
// uniform values make "l_orderkey <= X" select exactly the target
// fraction of rows.
func RunFig1(ctx context.Context, env *Env) (*Result, error) {
	res := &Result{
		ID:     "Fig1",
		Title:  "Filter algorithms vs selectivity",
		XLabel: "selectivity",
		Notes:  []string{"predicate: l_orderkey <= selectivity * |orders| (dense keys make selectivity exact)"},
	}
	return res.sweep(ctx, env.TPCH(), labels("%.0e", Fig1Selectivities), func(db *engine.DB, i int) ([]series, check) {
		sql := fig1SQL(env, Fig1Selectivities[i])
		return []series{
			{name: "Server-Side Filter", run: forced(db, engine.StrategyBaseline, sql)},
			{name: "S3-Side Filter", run: forced(db, engine.StrategyFiltered, sql)},
			{name: "Indexing", run: indexing(db, sql, engine.IndexFilterOptions{}),
				note: func(_ *engine.Exec, rel *engine.Relation) (string, map[string]float64, error) {
					return "", map[string]float64{"rows": float64(len(rel.Rows))}, nil
				}},
		}, sameRows
	})
}

// RunFig1MultiRange is the Suggestion-1 ablation: indexing with one GET
// per row (the 2020 S3 API) vs one multi-range GET per partition.
func RunFig1MultiRange(ctx context.Context, env *Env) (*Result, error) {
	res := &Result{
		ID:     "Fig1-S1",
		Title:  "Indexing: per-row GETs vs multi-range GET (Suggestion 1)",
		XLabel: "selectivity",
	}
	return res.sweep(ctx, env.TPCH(), labels("%.0e", Fig1Selectivities), func(db *engine.DB, i int) ([]series, check) {
		sql := fig1SQL(env, Fig1Selectivities[i])
		return []series{
			{name: "Per-Row GETs", run: indexing(db, sql, engine.IndexFilterOptions{})},
			{name: "Multi-Range GET", run: indexing(db, sql, engine.IndexFilterOptions{MultiRange: true})},
		}, sameRows
	})
}
