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

// serveFigClientCounts is the concurrency sweep (benchfig -fig Serve).
var serveFigClientCounts = []int{1, 2, 4, 8}

// round is one measured round of a served figure (Serve, Shared): the
// meter readings the server reported, summed over every query every
// client ran through the wire.
type round struct {
	queries    int
	runtimeSec float64 // summed virtual runtimes
	cost       cloudsim.CostBreakdown
	requests   int64
	cacheHits  int64
}

// runRound drives n concurrent clients through the server at base, in
// steps: at step k client c runs queries(c, k) in order, and step k+1
// starts when every client has its step-k answers. One step is n
// free-running clients; one query per step is a lockstep in which all n
// submit together. Each client accumulates into its own slot and the slots
// fold in client order after the last barrier — summing shared floats in
// goroutine-completion order would make the figure's totals vary run to
// run. Canceling ctx aborts every client's in-flight request.
func runRound(ctx context.Context, base string, n, steps int, queries func(c, k int) []struct{ name, sql string }) (*round, error) {
	slots := make([]round, n)
	errs := make([]error, n)
	for k := 0; k < steps; k++ {
		var wg sync.WaitGroup
		for c := 0; c < n; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				cl := server.NewClient(base)
				cl.Tenant = fmt.Sprintf("client-%d", c)
				mine := &slots[c]
				for _, q := range queries(c, k) {
					res, err := cl.Query(ctx, q.sql)
					if err != nil {
						errs[c] = fmt.Errorf("client %d %s: %w", c, q.name, err)
						return
					}
					mine.queries++
					mine.runtimeSec += res.RuntimeSec
					mine.cost = mine.cost.Add(res.Cost)
					mine.requests += res.Requests
					mine.cacheHits += res.CacheHits
				}
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
	}
	var total round
	for _, s := range slots {
		total.queries += s.queries
		total.runtimeSec += s.runtimeSec
		total.cost = total.cost.Add(s.cost)
		total.requests += s.requests
		total.cacheHits += s.cacheHits
	}
	return &total, nil
}

// point renders a round as one figure point: simulated cost and virtual
// runtime per query, averaged over everything the round's clients ran.
func (r *round) point(series string, clients int, extra map[string]float64) Point {
	per := 1.0 / float64(r.queries)
	return Point{
		Series:     series,
		X:          fmt.Sprint(clients),
		RuntimeSec: r.runtimeSec * per,
		Cost:       r.cost.Scale(per),
		Extra:      extra,
	}
}

// withServer runs f against a pushdownd serving db on a loopback port,
// sized for n clients, and shuts the server down before it returns.
func withServer(ctx context.Context, db *engine.DB, n int, f func(base string) error) error {
	srv := server.New(db, server.Config{
		MaxClients:     2 * n,
		RequestTimeout: time.Minute,
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	serveDone := make(chan struct{})
	go func() { _ = srv.Serve(l); close(serveDone) }()
	err = f("http://" + l.Addr().String())
	sdctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	sderr := srv.Shutdown(sdctx)
	cancel()
	<-serveDone
	if err == nil && sderr != nil {
		err = fmt.Errorf("harness: server shutdown at %d clients: %w", n, sderr)
	}
	return err
}

// RunServe measures pushdownd under concurrency (benchfig -fig Serve):
// for each client count, a fresh server over a fresh shared DB (result
// cache on) runs the Cache figure's workload twice — a cold round that
// fills the shared cache and a warm round that repeats it. The figure
// reports simulated cost per query: cold cost falls as clients grow
// (concurrent clients share one cache and one stats cache, so later
// arrivals ride fills paid by earlier ones) and the warm curve sits
// strictly below cold at every width — the whole point of putting one
// long-lived daemon in front of many clients instead of giving each its
// own engine.
func RunServe(ctx context.Context, env *Env) (*Result, error) {
	res := &Result{
		ID:     "Serve",
		Title:  "pushdownd: simulated cost per query vs concurrent clients, cold vs warm cache",
		XLabel: "clients",
		Notes: []string{
			"fresh server + DB per client count; every client runs the scan and join workloads once per round over HTTP",
			"cold round: concurrent clients share one result cache and one stats cache, so later arrivals ride earlier fills",
			"warm round: repeats are served from the compute tier — no Select requests, no scan/transfer dollars",
		},
	}
	everything := func(int, int) []struct{ name, sql string } { return cacheFigQueries() }
	for _, n := range serveFigClientCounts {
		// Result cache plus scan sharing at its defaults — the same pair
		// pushdownd ships with. Sharing only changes the cold round: cache
		// misses arriving together coalesce, and the non-leaders show up as
		// in-flight dedups on the cache stats rather than hits.
		db, err := env.TPCHWith([]engine.Option{
			engine.WithResultCache(cacheFigBudget),
			engine.WithScanSharing(scanshare.Config{}),
		})(ctx)
		if err != nil {
			return nil, err
		}
		if err := withServer(ctx, db, n, func(base string) error {
			for _, series := range []string{"cold", "warm"} {
				r, err := runRound(ctx, base, n, 1, everything)
				if err != nil {
					return err
				}
				res.Points = append(res.Points, r.point(series, n, map[string]float64{
					"requests_per_query": float64(r.requests) * (1.0 / float64(r.queries)),
					"cache_hits":         float64(r.cacheHits),
				}))
			}
			// Split the refill dedups out of the hit count on the warm
			// point, so the figure distinguishes "served from cache"
			// from "rode a neighbor's in-flight miss".
			if cs, ok := db.ResultCacheStats(); ok {
				res.Points[len(res.Points)-1].Extra["inflight_dedup"] = float64(cs.InflightDedup)
			}
			return nil
		}); err != nil {
			return nil, err
		}
	}
	return res, nil
}
