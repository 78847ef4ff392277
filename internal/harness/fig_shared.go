package harness

import (
	"context"
	"fmt"
	"time"

	"pushdowndb/internal/engine"
	"pushdowndb/internal/scanshare"
)

// sharedFigClientCounts is the concurrency sweep (benchfig -fig Shared).
var sharedFigClientCounts = []int{1, 2, 4, 8}

// sharedFigWindow is the batching window the shared series runs with —
// generous, because the figure's clients arrive together by construction
// and the window is wall-clock only (it never touches the virtual meter).
const sharedFigWindow = 250 * time.Millisecond

// sharedFigQueries returns client c's round: one identical whole-table
// aggregate every client submits verbatim (exercising singleflight) and one
// per-client filter variant on the same table (exercising predicate
// merging — compatible shapes, different predicates). Predicates go
// through l_quantity, which has no secondary index, so every client takes
// the pushed-scan path where sharing applies. The unshared series runs the
// aggregate as an S3-side group-by; under the sharing window the access
// planner keeps its plain scan, the request that batches.
func sharedFigQueries(c int) []struct{ name, sql string } {
	return []struct{ name, sql string }{
		{"agg", "SELECT l_returnflag, COUNT(*) AS n FROM lineitem " +
			"WHERE l_quantity < 30 GROUP BY l_returnflag ORDER BY l_returnflag"},
		{"filter", fmt.Sprintf(
			"SELECT l_returnflag, l_quantity FROM lineitem WHERE l_quantity < %d", 8+2*c)},
	}
}

// RunShared measures scan sharing under concurrency (benchfig -fig
// Shared): for each client count, n step-locked clients run the same
// two-query round over HTTP against a sharing server and against a plain
// one — no result cache in either, so every saving on the shared series is
// the coordinator's. On the unshared series cost per query is flat in n
// (every client buys its own scans); on the shared series it falls as
// clients are added, because one pushed pass per partition serves the
// whole batch and each sharer is billed 1/n of it.
func RunShared(ctx context.Context, env *Env) (*Result, error) {
	res := &Result{
		ID:     "Shared",
		Title:  "Scan sharing: simulated cost per query vs concurrent identical-table clients",
		XLabel: "clients",
		Notes: []string{
			"fresh server + DB per point, its planner statistics read once before the round; no result cache in either mode, so the gap is scan sharing alone",
			"clients are step-locked per query: all n submit together, the batch the coordinator sees is exactly the client count",
			"unshared: every client buys its own pushed scans; shared: one pass per partition serves the batch, billed 1/n to each sharer",
			"the aggregate runs as an S3-side group-by unshared; under the window its plain scan is kept (an aggregate request joins no batch), which a lone client pays for",
			"scan_saved_MB counts bytes the coordinator did not re-scan; sharers_avg is the mean batch size of shared passes",
		},
	}
	// The lockstep is the workload shape the figure studies — concurrent
	// arrivals on the same table — and it makes the shared series
	// deterministic: every round offers the coordinator the same batch.
	oneQueryPerStep := func(c, k int) []struct{ name, sql string } { return sharedFigQueries(c)[k : k+1] }
	for _, n := range sharedFigClientCounts {
		for _, mode := range []string{"unshared", "shared"} {
			var eopts []engine.Option
			if mode == "shared" {
				eopts = append(eopts, engine.WithScanSharing(scanshare.Config{
					Window: sharedFigWindow, MaxBatch: 64,
				}))
			}
			db, err := env.TPCHWith(eopts)(ctx)
			if err != nil {
				return nil, err
			}
			// The planner's statistics are read before the round, off the
			// bill: clients arriving together at a fresh DB would each pay
			// the catalog GET the first of them caches, or not, by timing.
			if _, _, err := db.ExecStatement(ctx, "EXPLAIN "+sharedFigQueries(0)[0].sql); err != nil {
				return nil, err
			}
			if err := withServer(ctx, db, n, func(base string) error {
				r, err := runRound(ctx, base, n, len(sharedFigQueries(0)), oneQueryPerStep)
				if err != nil {
					return err
				}
				extra := map[string]float64{}
				if ss, ok := db.ScanShareStats(); ok {
					extra["coalesced"] = float64(ss.Coalesced)
					extra["backend_selects"] = float64(ss.BackendSelects)
					extra["scan_saved_MB"] = float64(ss.ScanBytesSaved) / 1e6
					if ss.SharedPasses > 0 {
						extra["sharers_avg"] = float64(ss.Sharers) / float64(ss.SharedPasses)
					}
				}
				res.Points = append(res.Points, r.point(mode, n, extra))
				return nil
			}); err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}
