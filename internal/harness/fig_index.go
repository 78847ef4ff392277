package harness

import (
	"context"
	"fmt"

	"pushdowndb/internal/cloudsim"
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
	}
	maxPartkey := tpch.SizesFor(env.Scale.TPCHSF).Parts
	profiles := []cloudsim.Profile{
		cloudsim.S3Profile(),
		cloudsim.CrossRegionS3Profile(),
	}
	const proj = "l_orderkey, l_partkey"
	for _, profile := range profiles {
		db, err := env.TPCH(ctx, s3api.WithProfile(profile))
		if err != nil {
			return nil, err
		}
		// Build (idempotently rebuild) the index through the engine's own
		// catalog path; the manifest persists in the shared store.
		if err := db.CreateIndex(ctx, "lineitem", "l_partkey"); err != nil {
			return nil, err
		}
		for _, frac := range indexFigFracs {
			threshold := int(frac * float64(maxPartkey))
			if threshold < 1 {
				threshold = 1
			}
			pred := fmt.Sprintf("l_partkey <= %d", threshold)
			x := fmt.Sprintf("%g%% %s", frac*100, profile.Name)

			e1 := db.NewExecContext(ctx)
			idxRel, gets, err := e1.IndexScanFilter("lineitem", "l_partkey", pred, proj)
			if err != nil {
				return nil, fmt.Errorf("harness: index at %s: %w", x, err)
			}
			e2 := db.NewExecContext(ctx)
			scanRel, err := e2.S3SideFilter("lineitem", pred, proj)
			if err != nil {
				return nil, err
			}
			e3 := db.NewExecContext(ctx)
			baseRel, err := e3.ServerSideFilter("lineitem", pred, proj)
			if err != nil {
				return nil, err
			}
			if len(idxRel.Rows) != len(scanRel.Rows) || len(idxRel.Rows) != len(baseRel.Rows) {
				return nil, fmt.Errorf("harness: strategies disagree at %s: index %d, scan %d, baseline %d rows",
					x, len(idxRel.Rows), len(scanRel.Rows), len(baseRel.Rows))
			}
			res.add("IndexScan", x, e1, map[string]float64{
				"rows": float64(len(idxRel.Rows)), "ranged_gets": float64(gets),
			})
			res.add("S3-side filter", x, e2, nil)
			res.add("Baseline", x, e3, nil)

			// The SQL path: the access planner picks a strategy and pays
			// for its own statistics (the table's statistics object).
			sql := fmt.Sprintf("SELECT COUNT(*) AS n FROM lineitem WHERE %s", pred)
			rel, e, err := db.QueryContext(ctx, sql)
			if err != nil {
				return nil, err
			}
			ap := e.Access()
			if ap == nil {
				return nil, fmt.Errorf("harness: no access plan at %s", x)
			}
			if n, _ := rel.Rows[0][0].IntNum(); int(n) != len(idxRel.Rows) {
				return nil, fmt.Errorf("harness: SQL count %d != operator rows %d at %s", n, len(idxRel.Rows), x)
			}
			res.add("Planner ("+ap.Strategy+")", x, e, map[string]float64{
				"est_ranged_gets": float64(ap.EstRangedGets),
			})
		}
	}
	res.Notes = append(res.Notes,
		"IndexScan: pushed probe of the sorted index objects, coalesced multi-range GETs, local re-filter",
		"the crossover: IndexScan wins while few scattered ranges are fetched, loses when per-range overhead scales with matches",
		"Planner series records the access-path choice of the SQL front end (its cost includes reading the table's statistics object)")
	return res, nil
}
