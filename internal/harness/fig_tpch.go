package harness

import (
	"context"
	"fmt"
	"math"

	"pushdowndb/internal/cloudsim"
	"pushdowndb/internal/engine"
	"pushdowndb/internal/tpch"
)

// RunFig10 reproduces Fig. 10: the four individual operators (filter,
// group-by, top-K, join) and the six TPC-H queries, each under the
// baseline PushdownDB (no S3 Select) and the optimized PushdownDB, plus
// the geometric means the paper's headline numbers come from.
func RunFig10(ctx context.Context, env *Env) (*Result, error) {
	groupDB, err := env.GroupTable(-1)(ctx)
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:     "Fig10",
		Title:  "Operators and TPC-H queries: baseline vs optimized PushdownDB",
		XLabel: "workload",
	}
	names := []string{"Filter", "Group-by", "Top-K", "Join"}
	for _, q := range tpch.Queries() {
		names = append(names, "TPCH "+q.Name)
	}
	filterSQL := fmt.Sprintf("SELECT * FROM lineitem WHERE l_orderkey <= %d", tpch.SizesFor(env.Scale.TPCHSF).Orders/1000+1) // ~1e-3
	k := fig8K(env)
	if _, err := res.sweep(ctx, env.TPCH(), names, func(db *engine.DB, i int) ([]series, check) {
		// Every workload as its {baseline, optimized} pair of calls.
		pairs := [][2]call{
			{forced(db, engine.StrategyBaseline, filterSQL), forced(db, engine.StrategyFiltered, filterSQL)},
			{forced(groupDB, engine.StrategyBaseline, fig5SQL("g3")), s3SideGroupBy(groupDB, "g3")},
			{serverTopK(db, k), samplingTopK(db, k, 0)},
			{listing2(db, listing2SQL("-950", ""), engine.StrategyBaseline, 0.01),
				listing2(db, listing2SQL("-950", ""), engine.StrategyBloom, 0.01)},
		}
		for _, q := range tpch.Queries() {
			pairs = append(pairs, [2]call{
				func(context.Context) (*engine.Relation, *engine.Exec, error) { return q.Baseline(db) },
				func(context.Context) (*engine.Relation, *engine.Exec, error) { return q.Optimized(db) },
			})
		}
		check := sameRows
		if i == 1 { // the S3-side group-by
			check = sameGroupTotals
		}
		return []series{
			{name: "PushdownDB (Baseline)", run: pairs[i][0]},
			{name: "PushdownDB (Optimized)", run: pairs[i][1]},
		}, check
	}); err != nil {
		return nil, err
	}

	// Geometric means over the workloads, per series; the points alternate
	// baseline, optimized.
	var logRuntime, logCost [2]float64
	for i, p := range res.Points {
		logRuntime[i%2] += math.Log(p.RuntimeSec)
		logCost[i%2] += math.Log(p.Cost.Total())
	}
	n := float64(len(names))
	var runtime, cost [2]float64
	for s, name := range []string{"PushdownDB (Baseline)", "PushdownDB (Optimized)"} {
		runtime[s], cost[s] = math.Exp(logRuntime[s]/n), math.Exp(logCost[s]/n)
		// A geo-mean has no meaningful component split: it goes in one.
		res.Points = append(res.Points, Point{Series: name, X: "Geo-Mean", RuntimeSec: runtime[s],
			Cost: cloudsim.CostBreakdown{ComputeUSD: cost[s]}})
	}
	res.Notes = append(res.Notes, fmt.Sprintf(
		"geo-mean speedup %.1fx, cost ratio %.2f (paper: 6.7x faster, 30%% cheaper)",
		runtime[0]/runtime[1], cost[1]/cost[0]))
	return res, nil
}
