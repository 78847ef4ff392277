package harness

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"pushdowndb/internal/cloudsim"
	"pushdowndb/internal/engine"
	"pushdowndb/internal/scanshare"
	"pushdowndb/internal/server"
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

// sharedRound accumulates one round's server-reported meter readings.
type sharedRound struct {
	queries    int
	runtimeSec float64
	cost       cloudsim.CostBreakdown
}

// runSharedRound drives n concurrent clients, step-locked per query: all n
// submit query k together and the round advances only when every client
// has its answer. The lockstep is the workload shape the figure studies —
// concurrent arrivals on the same table — and it makes the shared series
// deterministic (every round offers the coordinator the same batch).
// Per-client slots fold in client order, as in the Serve figure, so
// float totals cannot vary with goroutine scheduling.
func runSharedRound(ctx context.Context, base string, n int) (*sharedRound, error) {
	slots := make([]sharedRound, n)
	errs := make([]error, n)
	for k := range sharedFigQueries(0) {
		var wg sync.WaitGroup
		for c := 0; c < n; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				q := sharedFigQueries(c)[k]
				cl := server.NewClient(base)
				cl.Tenant = fmt.Sprintf("client-%d", c)
				mine := &slots[c]
				res, err := cl.Query(ctx, q.sql)
				if err != nil {
					errs[c] = fmt.Errorf("client %d %s: %w", c, q.name, err)
					return
				}
				mine.queries++
				mine.runtimeSec += res.RuntimeSec
				mine.cost = mine.cost.Add(res.Cost)
			}(c)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
	}
	var round sharedRound
	for _, s := range slots {
		round.queries += s.queries
		round.runtimeSec += s.runtimeSec
		round.cost = round.cost.Add(s.cost)
	}
	return &round, nil
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
	}
	for _, n := range sharedFigClientCounts {
		for _, mode := range []string{"unshared", "shared"} {
			var eopts []engine.Option
			if mode == "shared" {
				eopts = append(eopts, engine.WithScanSharing(scanshare.Config{
					Window: sharedFigWindow, MaxBatch: 64,
				}))
			}
			db, err := env.TPCHWith(ctx, eopts)
			if err != nil {
				return nil, err
			}
			// The planner's statistics are read before the round, off the
			// bill: clients arriving together at a fresh DB would each pay
			// the catalog GET the first of them caches, or not, by timing.
			if _, err := db.ExplainContext(ctx, sharedFigQueries(0)[0].sql); err != nil {
				return nil, err
			}
			srv := server.New(db, server.Config{
				MaxClients:     2 * n,
				RequestTimeout: time.Minute,
			})
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return nil, err
			}
			serveDone := make(chan struct{})
			go func() { _ = srv.Serve(l); close(serveDone) }()

			round, err := runSharedRound(ctx, "http://"+l.Addr().String(), n)
			if err == nil {
				per := 1.0 / float64(round.queries)
				extra := map[string]float64{}
				if ss, ok := db.ScanShareStats(); ok {
					extra["coalesced"] = float64(ss.Coalesced)
					extra["backend_selects"] = float64(ss.BackendSelects)
					extra["scan_saved_MB"] = float64(ss.ScanBytesSaved) / 1e6
					if ss.SharedPasses > 0 {
						extra["sharers_avg"] = float64(ss.Sharers) / float64(ss.SharedPasses)
					}
				}
				res.Points = append(res.Points, Point{
					Series:     mode,
					X:          fmt.Sprint(n),
					RuntimeSec: round.runtimeSec * per,
					Cost:       round.cost.Scale(per),
					Extra:      extra,
				})
			}
			sdctx, cancel := context.WithTimeout(ctx, 30*time.Second)
			sderr := srv.Shutdown(sdctx)
			cancel()
			<-serveDone
			if err != nil {
				return nil, err
			}
			if sderr != nil {
				return nil, fmt.Errorf("harness: shared shutdown at %d clients: %w", n, sderr)
			}
		}
	}
	res.Notes = append(res.Notes,
		"fresh server + DB per point, its planner statistics read once before the round; no result cache in either mode, so the gap is scan sharing alone",
		"clients are step-locked per query: all n submit together, the batch the coordinator sees is exactly the client count",
		"unshared: every client buys its own pushed scans; shared: one pass per partition serves the batch, billed 1/n to each sharer",
		"the aggregate runs as an S3-side group-by unshared; under the window its plain scan is kept (an aggregate request joins no batch), which a lone client pays for",
		"scan_saved_MB counts bytes the coordinator did not re-scan; sharers_avg is the mean batch size of shared passes")
	return res, nil
}
