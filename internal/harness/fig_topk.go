package harness

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"pushdowndb/internal/engine"
	"pushdowndb/internal/tpch"
)

// fig8K scales the paper's K=100 (over 60M rows) to the generated
// lineitem's row count, keeping K << N so the sampling optimum is interior.
func fig8K(env *Env) int {
	return max(approxLineitemRows(env)/500, 25)
}

func approxLineitemRows(env *Env) int {
	// GenLineitems averages 4 lines per order.
	return tpch.SizesFor(env.Scale.TPCHSF).Orders * 4
}

// topKSQL is Section VII's statement: the k cheapest lineitems.
func topKSQL(k int) string {
	return fmt.Sprintf("SELECT * FROM lineitem ORDER BY l_extendedprice LIMIT %d", k)
}

// serverTopK and samplingTopK are a series' call of Section VII's two
// algorithms over topKSQL: the statement on the forced baseline (load the
// table, sort and limit on the server), and the sampling top-K at sample
// size s (0 for the model's S*).
func serverTopK(db *engine.DB, k int) call {
	return forced(db, engine.StrategyBaseline, topKSQL(k))
}

func samplingTopK(db *engine.DB, k int, s int64) call {
	return op(db, func(e *engine.Exec) (*engine.Relation, error) { return e.SamplingTopK(topKSQL(k), s) })
}

// RunFig8 reproduces Fig. 8: the sampling top-K's runtime split (sampling
// phase vs scanning phase) and bytes returned as the sample size S sweeps
// around the analytic optimum S* = sqrt(KN/alpha).
func RunFig8(ctx context.Context, env *Env) (*Result, error) {
	k := fig8K(env)
	n := int64(approxLineitemRows(env))
	sStar := engine.OptimalSampleSize(k, n, engine.SamplingAlpha)
	res := &Result{
		ID:     "Fig8",
		Title:  fmt.Sprintf("Sampling top-K vs sample size (K=%d, S*=%d)", k, sStar),
		XLabel: "sample size",
		Notes:  []string{"samplingSec/scanningSec are the two bar segments of the paper's Fig. 8a; returnedGB is the line"},
	}
	mults := []float64{1.0 / 16, 1.0 / 4, 1, 4, 16}
	return res.sweep(ctx, env.TPCH(), []string{"S*/16", "S*/4", "S*", "4*S*", "16*S*"}, func(db *engine.DB, i int) ([]series, check) {
		s := min(max(int64(float64(sStar)*mults[i]), int64(k)+1), n)
		return []series{{
			name: "Sampling Top-K",
			run:  samplingTopK(db, k, s),
			note: func(e *engine.Exec, _ *engine.Relation) (string, map[string]float64, error) {
				return "", map[string]float64{
					"samplingSec": e.Metrics.PhaseSeconds("sample lineitem"),
					"scanningSec": e.Metrics.PhaseSeconds("threshold scan lineitem"),
					"returnedGB":  float64(e.Metrics.PhaseReturnedBytes("")) / 1e9,
					"S":           float64(s),
				}, nil
			},
		}, {run: serverTopK(db, k)}}, sameRows // the statement's answer, unplotted
	})
}

// RunFig9 reproduces Fig. 9: server-side vs sampling top-K as K grows.
// The sampling algorithm derives S from the Section VII-B model.
func RunFig9(ctx context.Context, env *Env) (*Result, error) {
	res := &Result{
		ID:     "Fig9",
		Title:  "Top-K algorithms vs K",
		XLabel: "K",
	}
	var ks []int
	for _, k := range []int{1, 10, 100, 1000} {
		if k < approxLineitemRows(env)/4 {
			ks = append(ks, k)
		}
	}
	return res.sweep(ctx, env.TPCH(), labels("%d", ks), func(db *engine.DB, i int) ([]series, check) {
		return []series{
			{name: "Server-Side Top-K", run: serverTopK(db, ks[i])},
			{name: "Sampling Top-K", run: samplingTopK(db, ks[i], 0)},
		}, sameRows
	})
}

// RunTopKModel validates the Section VII-B analysis: measured bytes
// returned across sample sizes should be minimized near the analytic
// S* = sqrt(KN/alpha).
func RunTopKModel(ctx context.Context, env *Env) (*Result, error) {
	fig8, err := RunFig8(ctx, env)
	if err != nil {
		return nil, err
	}
	best := slices.MinFunc(fig8.Points, func(a, b Point) int {
		return cmp.Compare(a.Extra["returnedGB"], b.Extra["returnedGB"])
	})
	return &Result{
		ID:     "TopKModel",
		Title:  "Sampling top-K: analytic optimum vs measured data traffic",
		XLabel: "sample size",
		Points: fig8.Points,
		Notes:  []string{fmt.Sprintf("minimum measured traffic at %s (model predicts S*)", best.X)},
	}, nil
}
