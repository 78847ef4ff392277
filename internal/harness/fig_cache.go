package harness

import (
	"context"

	"pushdowndb/internal/cloudsim"
	"pushdowndb/internal/engine"
	"pushdowndb/internal/s3api"
)

// cacheFigBudget is the result-cache byte budget the Cache figure runs
// with — comfortably larger than any scan the figure repeats.
const cacheFigBudget = 256 << 20

// cacheFigQueries are the repeated workloads: a single-table filter +
// group-by (always select-based, on every profile) and the Listing-2 join
// (whose strategy the planner picks per profile — on fast free tiers it may
// plan a GET-based baseline join that owes the select cache nothing, which
// the figure reports rather than hides).
func cacheFigQueries() []struct{ name, sql string } {
	return []struct{ name, sql string }{
		{"scan", "SELECT l_returnflag, COUNT(*) AS n, SUM(l_extendedprice) AS total " +
			"FROM lineitem WHERE l_quantity < 30 GROUP BY l_returnflag ORDER BY l_returnflag"},
		{"join", listing2SQL(loosestAcctbal, "")},
	}
}

// cacheExtras is the note of the Cache figure's series: the requests the
// run issued and, on a warm run, what the result cache served.
func cacheExtras(warm bool) note {
	return func(e *engine.Exec, _ *engine.Relation) (string, map[string]float64, error) {
		requests, _, _, _ := e.Metrics.Totals()
		extra := map[string]float64{"requests": float64(requests)}
		if warm {
			hits, hitBytes := e.Metrics.CacheTotals()
			extra["cache_hits"], extra["cache_MB"] = float64(hits), float64(hitBytes)/1e6
		}
		return "", extra, nil
	}
}

// RunCache measures the select-result cache (benchfig -fig Cache): each
// query runs cold and then warm against the same DB on each backend
// profile. Warm repeats are served from the compute tier — zero storage
// Select requests, no scan/transfer dollars, only the response re-parse on
// the virtual clock — so the warm cost curve sits strictly below the cold
// one on every metered profile, with the gap widest where the wire is
// slowest and egress is billed (cross-region S3).
func RunCache(ctx context.Context, env *Env) (*Result, error) {
	res := &Result{
		ID:     "Cache",
		Title:  "Cold vs warm result cache per backend profile",
		XLabel: "backend",
		Notes: []string{
			"same DB per profile: the cold run fills the result cache, the warm run repeats the query",
			"warm scans are served from the compute tier: no Select requests, no scan/transfer dollars, decode only",
			"the join row reports whatever strategy the planner picked per profile; a GET-based baseline join is unaffected by the select cache beyond free planning",
		},
	}
	for _, profile := range []cloudsim.Profile{cloudsim.S3Profile(), cloudsim.CrossRegionS3Profile(), cloudsim.LocalFSProfile()} {
		cached := env.TPCHWith([]engine.Option{engine.WithResultCache(cacheFigBudget)}, s3api.WithProfile(profile))
		if _, err := res.sweep(ctx, cached, []string{profile.Name}, func(db *engine.DB, _ int) ([]series, check) {
			var ss []series
			for _, q := range cacheFigQueries() {
				ss = append(ss,
					series{name: q.name + " cold", run: query(db, q.sql), note: cacheExtras(false)},
					series{name: q.name + " warm", run: query(db, q.sql), note: cacheExtras(true)})
			}
			return ss, func(rels []*engine.Relation) error { // each warm answer is its cold one
				if err := sameAnswer(rels[:2]); err != nil {
					return err
				}
				return sameAnswer(rels[2:])
			}
		}); err != nil {
			return nil, err
		}
	}
	return res, nil
}
