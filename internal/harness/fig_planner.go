package harness

import (
	"context"
	"fmt"

	"pushdowndb/internal/engine"
)

// RunPlanner exercises the SQL join planner over the paper's Listing-2
// workload: as the customer filter loosens, the cost model should move
// from the Bloom join (selective build side, pushdown pays off) toward
// the baseline join. Each point runs the full SQL query end-to-end —
// planning probes included — and cross-checks the answer against the
// explicit BloomJoin operator call, so the series shows what the planner
// actually chose and what it actually cost.
func RunPlanner(ctx context.Context, env *Env) (*Result, error) {
	db, err := env.TPCH(ctx)
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:     "Planner",
		Title:  "Cost-based join strategy selection vs customer selectivity (c_acctbal <= ?)",
		XLabel: "c_acctbal <=",
	}
	for _, ub := range Fig2Acctbals {
		sql := fmt.Sprintf(
			"SELECT SUM(o.o_totalprice) AS total, COUNT(*) AS n "+
				"FROM customer c JOIN orders o ON c.c_custkey = o.o_custkey "+
				"WHERE c.c_acctbal <= %s", ub)
		rel, e, err := db.QueryContext(ctx, sql)
		if err != nil {
			return nil, fmt.Errorf("harness: planner at %s: %w", ub, err)
		}
		plan := e.QueryPlan()
		if plan == nil || len(plan.Steps) != 1 {
			return nil, fmt.Errorf("harness: planner at %s produced no join plan", ub)
		}
		step := plan.Steps[0]

		// Cross-check against the explicit operator API.
		opExec := db.NewExecContext(ctx)
		want, err := opExec.JoinAggregate(listing2Spec(ub, "", 0.01), "bloom",
			"SUM(o_totalprice) AS total, COUNT(*) AS n")
		if err != nil {
			return nil, err
		}
		n, _ := rel.Rows[0][1].IntNum()
		wn, _ := want.Rows[0][1].IntNum()
		if n != wn {
			return nil, fmt.Errorf("harness: planner at %s: SQL count %d != operator count %d", ub, n, wn)
		}

		strategyCode := map[string]float64{
			engine.StrategyBaseline: 0, engine.StrategyBloom: 1,
		}[step.Strategy]
		res.add("Planner ("+step.Strategy+")", ub, e, map[string]float64{"bloom": strategyCode})
	}
	res.Notes = append(res.Notes,
		"series name records the strategy the cost model picked at each selectivity",
		"runtime/cost include the planner's own statistics: one GET of each table's statistics object, no COUNT(*) probe")
	return res, nil
}
