package harness

import (
	"context"
	"errors"
	"fmt"

	"pushdowndb/internal/cloudsim"
	"pushdowndb/internal/engine"
	"pushdowndb/internal/s3api"
	"pushdowndb/internal/tpch"
)

// indexFigFracs are the swept selectivities: the paper's index-vs-scan
// crossover (Fig. 1) lives between the selective regime, where probing a
// narrow index object and fetching a handful of byte ranges beats paying
// the scan rate over the whole table, and the unselective regime, where
// millions of scattered ranges drown the strategy in per-range overhead.
var indexFigFracs = []float64{0.001, 0.01, 0.10, 0.50}

// RunIndex regenerates the index-vs-scan selectivity crossover through the
// manifest-backed secondary-index subsystem (benchfig -fig Index): on each
// metered profile, a `l_partkey <= T` filter over lineitem runs as a
// forced IndexScan (index-object probe → coalesced multi-range GETs →
// local re-filter), a forced S3-side filtered scan and the server-side
// baseline, plus the SQL path whose access-path planner picks among the
// three. l_partkey is uniformly scattered through lineitem, so coalescing
// cannot collapse the unselective fetches — the shape the paper plots.
func RunIndex(ctx context.Context, env *Env) (*Result, error) {
	res := &Result{
		ID:     "Index",
		Title:  "IndexScan vs filtered scan vs baseline over selectivity (lineitem, l_partkey <= ?)",
		XLabel: "selectivity",
		Notes: []string{
			"IndexScan: pushed probe of the sorted index objects, coalesced multi-range GETs, local re-filter",
			"the crossover: IndexScan wins while few scattered ranges are fetched, loses when per-range overhead scales with matches",
			"Planner series records the access-path choice of the SQL front end (its cost includes reading the table's statistics object)",
		},
	}
	maxPartkey := tpch.SizesFor(env.Scale.TPCHSF).Parts
	// Build (idempotently rebuild) the index through the engine's own catalog
	// path; the manifest persists in the shared store, where the DB of each
	// profile finds it.
	db, err := env.TPCH()(ctx)
	if err == nil {
		err = db.CreateIndex(ctx, "lineitem", "l_partkey")
	}
	if err != nil {
		return nil, err
	}
	for _, profile := range []cloudsim.Profile{cloudsim.S3Profile(), cloudsim.CrossRegionS3Profile()} {
		xs := make([]string, len(indexFigFracs))
		for i, frac := range indexFigFracs {
			xs[i] = fmt.Sprintf("%g%% %s", frac*100, profile.Name)
		}
		_, err := res.sweep(ctx, env.TPCH(s3api.WithProfile(profile)), xs, func(db *engine.DB, i int) ([]series, check) {
			pred := fmt.Sprintf("l_partkey <= %d", max(int(indexFigFracs[i]*float64(maxPartkey)), 1))
			sql := "SELECT l_orderkey, l_partkey FROM lineitem WHERE " + pred
			return []series{
					{name: "IndexScan", run: forced(db, engine.StrategyIndexScan, sql),
						note: func(e *engine.Exec, rel *engine.Relation) (string, map[string]float64, error) {
							gets := e.QueryPlan().Scans[0].Access.RangedGets
							return "", map[string]float64{"rows": float64(len(rel.Rows)), "ranged_gets": float64(gets)}, nil
						}},
					{name: "S3-side filter", run: forced(db, engine.StrategyFiltered, sql)},
					{name: "Baseline", run: forced(db, engine.StrategyBaseline, sql)},
					// The SQL path: the access planner picks a strategy and pays
					// for its own statistics (the table's statistics object).
					{name: "Planner", run: query(db, "SELECT COUNT(*) AS n FROM lineitem WHERE "+pred),
						note: func(e *engine.Exec, _ *engine.Relation) (string, map[string]float64, error) {
							ap := e.QueryPlan().Scans[0].Access
							if ap == nil {
								return "", nil, errors.New("no access plan")
							}
							return " (" + ap.Strategy + ")", map[string]float64{"est_ranged_gets": float64(ap.EstRangedGets)}, nil
						}},
				}, func(rels []*engine.Relation) error {
					if n, _ := rels[3].Rows[0][0].IntNum(); int(n) != len(rels[0].Rows) {
						return fmt.Errorf("SQL count %d != operator rows %d", n, len(rels[0].Rows))
					}
					return sameRows(rels[:3])
				}
		})
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}
