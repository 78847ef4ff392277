// Quickstart: stand up a simulated S3 store, load a small CSV table, and
// run queries through PushdownDB — first with everything pulled to the
// server (the baseline), then with the filter pushed into S3 Select —
// and compare what each approach moved over the network and what it would
// have cost on AWS.
package main

import (
	"context"
	"fmt"
	"log"

	"pushdowndb/internal/engine"
	"pushdowndb/internal/s3api"
	"pushdowndb/internal/store"
)

func main() {
	// 1. A simulated S3 store with one partitioned table.
	ctx := context.Background()
	st := store.New()
	header := []string{"id", "city", "temp_c"}
	rows := [][]string{
		{"1", "madison", "-8.5"},
		{"2", "boston", "-2.0"},
		{"3", "doha", "31.5"},
		{"4", "amherst", "-4.25"},
		{"5", "cambridge", "-1.75"},
		{"6", "san-francisco", "14.0"},
	}
	if err := engine.PartitionTable(ctx, st, "weather", "readings", header, rows, 2); err != nil {
		log.Fatal(err)
	}

	// 2. Open PushdownDB with the in-process backend over the store (the
	// backend simulates in-region S3 and advertises its own capability and
	// cost profile).
	db, err := engine.Open("weather",
		engine.WithBackend("s3sim", s3api.NewInProc(st)))
	if err != nil {
		log.Fatal(err)
	}

	// 3a. Baseline: force the statement onto the baseline access path —
	// load the entire table, filter on the server.
	const cold = "SELECT city, temp_c FROM readings WHERE temp_c < 0"
	rel, e1, err := db.QueryForced(ctx, cold, engine.StrategyBaseline)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("server-side filter (baseline):")
	fmt.Print(rel)
	_, _, _, loaded := e1.Metrics.Totals()
	fmt.Printf("bytes pulled from storage: %d\n\n", loaded)

	// 3b. Pushdown: the same statement on the filtered access path, where
	// S3 Select evaluates the predicate at the storage side.
	rel, e2, err := db.QueryForced(ctx, cold, engine.StrategyFiltered)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("s3-side filter (pushdown):")
	fmt.Print(rel)
	_, scanned, returned, _ := e2.Metrics.Totals()
	fmt.Printf("bytes scanned in storage: %d, returned to server: %d\n\n", scanned, returned)

	// 4. Or let the planner decide — selection and projection are pushed
	// automatically, grouping runs on the server.
	rel, e3, err := db.QueryContext(ctx,
		"SELECT city, temp_c FROM readings WHERE temp_c < 0 ORDER BY temp_c LIMIT 3")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("SQL front end:")
	fmt.Print(rel)
	fmt.Printf("virtual runtime %.4fs, AWS-equivalent cost %s\n", e3.RuntimeSeconds(), e3.Cost())
}
