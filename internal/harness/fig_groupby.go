package harness

import (
	"context"
	"fmt"
	"math"

	"pushdowndb/internal/engine"
	"pushdowndb/internal/s3api"
	"pushdowndb/internal/selectengine"
)

// fig5SQL is Section VI-C1's query: the four sums per group of the synthetic
// table's groupCol, which every group-by series runs — the server-side and
// filtered group-bys as a forced baseline and filtered statement.
func fig5SQL(groupCol string) string {
	return fmt.Sprintf("SELECT %s, SUM(v1) AS s1, SUM(v2) AS s2, SUM(v3) AS s3, SUM(v4) AS s4 FROM groups GROUP BY %[1]s", groupCol)
}

// s3SideGroupBy is a series' call of the S3-side group-by over the synthetic
// table's groupCol.
func s3SideGroupBy(db *engine.DB, groupCol string) call {
	return op(db, func(e *engine.Exec) (*engine.Relation, error) { return e.S3SideGroupBy(fig5SQL(groupCol)) })
}

// hybridGroupBy is a series' call of the hybrid algorithm over g1.
func hybridGroupBy(db *engine.DB, opts engine.HybridGroupByOptions) call {
	return op(db, func(e *engine.Exec) (*engine.Relation, error) { return e.HybridGroupBy(fig5SQL("g1"), opts) })
}

// Fig5GroupCounts is the paper's x-axis: 2..32 groups. Group column gI has
// 2^I distinct groups in the uniform synthetic table.
var Fig5GroupCounts = []int{2, 4, 8, 16, 32}

// RunFig5 reproduces Fig. 5: server-side, filtered and S3-side group-by as
// the number of groups grows (uniform group sizes).
func RunFig5(ctx context.Context, env *Env) (*Result, error) {
	res := &Result{
		ID:     "Fig5",
		Title:  "Group-by algorithms vs number of groups (uniform sizes)",
		XLabel: "groups",
	}
	return res.sweep(ctx, env.GroupTable(-1), labels("%d", Fig5GroupCounts), func(db *engine.DB, i int) ([]series, check) {
		groupCol := fmt.Sprintf("g%d", i+1) // g1 has 2 groups, g5 has 32
		return []series{
			{name: "Server-Side Group-By", run: forced(db, engine.StrategyBaseline, fig5SQL(groupCol))},
			{name: "Filtered Group-By", run: forced(db, engine.StrategyFiltered, fig5SQL(groupCol))},
			{name: "S3-Side Group-By", run: s3SideGroupBy(db, groupCol)},
		}, sameGroupTotals
	})
}

// Fig6S3Groups is the paper's sweep of how many groups hybrid group-by
// aggregates in S3.
var Fig6S3Groups = []int{1, 4, 6, 8, 10, 12}

// RunFig6 reproduces Fig. 6: within hybrid group-by (skew θ=1.1), the
// server-side time, the S3-side time and the bytes returned as more groups
// are aggregated in S3. The query's runtime is the max of the two bars.
func RunFig6(ctx context.Context, env *Env) (*Result, error) {
	res := &Result{
		ID:     "Fig6",
		Title:  "Hybrid group-by: server- vs S3-side aggregation split (θ=1.1)",
		XLabel: "groups in S3",
		Notes:  []string{"s3SideSec/serverSideSec are the two phase-2 bars of the paper's Fig. 6; returnedGB is the line"},
	}
	return res.sweep(ctx, env.GroupTable(1.1), labels("%d", Fig6S3Groups), func(db *engine.DB, i int) ([]series, check) {
		return []series{{
			name: "Hybrid Group-By",
			run:  hybridGroupBy(db, engine.HybridGroupByOptions{S3Groups: Fig6S3Groups[i]}),
			note: func(e *engine.Exec, _ *engine.Relation) (string, map[string]float64, error) {
				return "", map[string]float64{
					"s3SideSec":     e.Metrics.PhaseSeconds("s3 big groups"),
					"serverSideSec": e.Metrics.PhaseSeconds("tail scan"),
					"returnedGB":    float64(e.Metrics.PhaseReturnedBytes("")) / 1e9,
				}, nil
			},
		}}, nil
	})
}

// Fig7Thetas is the paper's skew sweep.
var Fig7Thetas = []float64{0, 0.6, 0.9, 1.1, 1.3}

// RunFig7 reproduces Fig. 7: server-side, filtered and hybrid group-by as
// group-size skew grows (100 groups, Zipfian θ).
func RunFig7(ctx context.Context, env *Env) (*Result, error) {
	res := &Result{
		ID:     "Fig7",
		Title:  "Group-by algorithms vs skew (Zipf θ)",
		XLabel: "θ",
	}
	for _, theta := range Fig7Thetas {
		if _, err := res.sweep(ctx, env.GroupTable(theta), []string{fmt.Sprintf("%g", theta)}, func(db *engine.DB, _ int) ([]series, check) {
			return []series{
				{name: "Server-Side Group-By", run: forced(db, engine.StrategyBaseline, fig5SQL("g1"))},
				{name: "Filtered Group-By", run: forced(db, engine.StrategyFiltered, fig5SQL("g1"))},
				{name: "Hybrid Group-By", run: hybridGroupBy(db, engine.HybridGroupByOptions{S3Groups: 8})},
			}, sameGroupTotals
		}); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// sameGroupTotals is sameRows over every series but the last, a group-by
// whose float SUM partials are not exact (harness_test.go,
// sameRowsExemptions); with it, the series agree on the grand total of the
// first aggregate.
func sameGroupTotals(rels []*engine.Relation) error {
	if err := sameRows(rels[:len(rels)-1]); err != nil {
		return err
	}
	var totals []float64
	for _, rel := range rels {
		var t float64
		for _, r := range rel.Rows {
			v, _ := r[1].Num()
			t += v
		}
		totals = append(totals, t)
	}
	for i := 1; i < len(totals); i++ {
		if math.Abs(totals[i]-totals[0]) > math.Abs(totals[0])*1e-6+1e-6 {
			return fmt.Errorf("aggregate totals disagree: %v", totals)
		}
	}
	return nil
}

// RunFig6PartialGroupBy is the Suggestion-4 ablation: hybrid group-by with
// the CASE encoding vs a real partial GROUP BY pushed to the storage side.
func RunFig6PartialGroupBy(ctx context.Context, env *Env) (*Result, error) {
	res := &Result{
		ID:     "Fig6-S4",
		Title:  "Hybrid group-by: CASE encoding vs partial GROUP BY (Suggestion 4)",
		XLabel: "groups in S3",
	}
	// The partial-group-by path needs a storage side advertising the
	// Suggestion-4 capability.
	groupingS3 := env.GroupTable(1.1, s3api.WithCapabilities(selectengine.Capabilities{AllowGroupBy: true}))
	s3Groups := []int{4, 8, 12}
	return res.sweep(ctx, groupingS3, labels("%d", s3Groups), func(db *engine.DB, i int) ([]series, check) {
		return []series{
			{name: "CASE Encoding", run: hybridGroupBy(db, engine.HybridGroupByOptions{S3Groups: s3Groups[i]})},
			{name: "Partial Group-By", run: hybridGroupBy(db, engine.HybridGroupByOptions{S3Groups: s3Groups[i], UsePartialGroupBy: true})},
		}, sameRows
	})
}
