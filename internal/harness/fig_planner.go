package harness

import (
	"context"

	"pushdowndb/internal/engine"
)

// RunPlanner exercises the SQL join planner over the paper's Listing-2
// workload: as the customer filter loosens, the cost model should move
// from the Bloom join (selective build side, pushdown pays off) toward
// the baseline join. Each point runs the full SQL query end-to-end —
// planning probes included — and cross-checks the answer against the
// hand Bloom join of the same statement, so the series shows what the planner
// actually chose and what it actually cost.
func RunPlanner(ctx context.Context, env *Env) (*Result, error) {
	res := &Result{
		ID:     "Planner",
		Title:  "Cost-based join strategy selection vs customer selectivity (c_acctbal <= ?)",
		XLabel: "c_acctbal <=",
		Notes: []string{
			"series name records the strategy the cost model picked at each selectivity",
			"runtime/cost include the planner's own statistics: one GET of each table's statistics object, no COUNT(*) probe",
		},
	}
	return res.sweep(ctx, env.TPCH(), Fig2Acctbals, func(db *engine.DB, i int) ([]series, check) {
		return []series{
			{name: "Planner", run: query(db, listing2SQL(Fig2Acctbals[i], "")), note: planned(false)},
			{run: listing2(db, listing2SQL(Fig2Acctbals[i], ""), engine.StrategyBloom, 0.01)},
		}, sameRows
	})
}
