package harness

import (
	"context"
	"fmt"

	"pushdowndb/internal/engine"
)

// ParallelWorkerCounts is the worker-budget sweep of the parallel-execution
// figure: 1 (the sequential seed server) up to the paper node's 32 cores.
var ParallelWorkerCounts = []int{1, 2, 4, 8, 16, 32}

// RunParallel sweeps the server's worker budget — which the virtual clock
// and the planner price row work at, and which starts no goroutine — and
// reports (a) the server-side group-by baseline, whose load-parse and row
// work dominate and therefore speed up with the budget until the network
// transfer bound, and (b) what the cost-based join planner chooses for the
// Listing-2 join at the same budgets. A faster server makes the baseline
// join's full-table loads cheaper relative to S3-side pushdown, so the
// planner's strategy flips from bloom toward baseline as workers grow —
// the pushdown-vs-server-parallelism trade-off the paper's follow-up
// work weighs.
func RunParallel(ctx context.Context, env *Env) (*Result, error) {
	gdb, err := env.GroupTable(-1)(ctx)
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:     "Parallel",
		Title:  "Server-side operators vs worker budget (32-core node)",
		XLabel: "workers",
		Notes: []string{
			"group-by results are byte-identical at every worker count (deterministic merge order)",
			fmt.Sprintf("planner series records the strategy chosen for the Listing-2 join at c_acctbal <= %s; est columns are its per-strategy runtime estimates", loosestAcctbal),
			"row work and load parsing divide their wall-clock across the worker budget; request issuance, network transfer and S3-side scans do not",
		},
	}
	sameAtEveryBudget := acrossX(sameAnswer)
	return res.sweep(ctx, env.TPCH(), labels("%d", ParallelWorkerCounts), func(jdb *engine.DB, i int) ([]series, check) {
		gdb.Cfg.Workers, jdb.Cfg.Workers = ParallelWorkerCounts[i], ParallelWorkerCounts[i]
		return []series{
			{name: "Server-Side Group-By", run: forced(gdb, engine.StrategyBaseline, fig5SQL("g5"))},
			// Planned, not run: the figure reports the choice and its estimates.
			{name: "Planner", note: planned(true), run: func(ctx context.Context) (*engine.Relation, *engine.Exec, error) {
				_, e, err := jdb.ExecStatement(ctx, "EXPLAIN "+listing2SQL(loosestAcctbal, ""))
				return nil, e, err
			}},
		}, sameAtEveryBudget
	})
}
