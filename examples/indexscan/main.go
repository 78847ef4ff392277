// Indexscan: build an S3-side secondary index on a partitioned table with
// CREATE INDEX, then watch the planner's access path flip between the
// IndexScan (probe the sorted index objects, fetch only the matching byte
// ranges with batched multi-range GETs) and the plain pushed scan as the
// predicate's selectivity loosens — the paper's Section IV-A crossover.
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"pushdowndb/internal/cloudsim"
	"pushdowndb/internal/engine"
	"pushdowndb/internal/s3api"
	"pushdowndb/internal/store"
)

func main() {
	ctx := context.Background()

	// 1. A simulated S3 store with one wide partitioned table: 4000 rows,
	// v uniformly scattered in [0, 400), plus a fat payload column so the
	// index objects are much narrower than the data.
	st := store.New()
	pad := strings.Repeat("#", 48)
	var rows [][]string
	for i := 0; i < 4000; i++ {
		rows = append(rows, []string{fmt.Sprint(i), fmt.Sprint(i % 400), pad})
	}
	if err := engine.PartitionTable(ctx, st, "demo", "events", []string{"k", "v", "payload"}, rows, 4); err != nil {
		log.Fatal(err)
	}

	// 2. Open the DB at a simulation scale where storage dollars dominate
	// request round trips (the regime the paper measures).
	db, err := engine.Open("demo",
		engine.WithBackend("s3sim", s3api.NewInProc(st)),
		engine.WithScale(cloudsim.Scale{DataRatio: 20000, PartRatio: 8}))
	if err != nil {
		log.Fatal(err)
	}

	// 3. CREATE INDEX scans each partition once and writes value-sorted
	// <value, first_byte, last_byte> index objects next to the data, plus
	// a manifest so any later DB rediscovers the index from storage alone.
	if _, _, err := db.ExecStatement(ctx, "CREATE INDEX ix_v ON events (v)"); err != nil {
		log.Fatal(err)
	}
	for _, e := range db.Indexes(ctx, "events") {
		fmt.Printf("index %s on events(%s): %d partitions, %d bytes\n\n",
			e.Name, e.Column, e.Partitions, e.IndexBytes)
	}

	// 4. A selective equality flips to the IndexScan access path; an
	// unselective range stays a pushed scan. EXPLAIN prints the plan the
	// query then runs: its one scan carries the access decision and the
	// three-way estimate that drove it, and after the run the IndexScan's
	// multi-range GETs.
	for _, sql := range []string{
		"SELECT k FROM events WHERE v = 123",
		"SELECT COUNT(*) AS n FROM events WHERE v >= 8",
	} {
		plan, _, err := db.ExecStatement(ctx, "EXPLAIN "+sql)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(sql)
		for _, line := range plan.Rows {
			fmt.Println(line[0].AsString())
		}
		rel, e, err := db.QueryContext(ctx, sql)
		if err != nil {
			log.Fatal(err)
		}
		ap := e.QueryPlan().Scans[0].Access
		fmt.Printf("ran as %s (%d multi-range GETs), %d rows, runtime %.3fs, cost %s\n\n",
			ap.Strategy, ap.RangedGets, len(rel.Rows), e.RuntimeSeconds(), e.Cost())
	}
}
