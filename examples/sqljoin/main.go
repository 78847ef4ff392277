// SQL join walkthrough: the paper's Listing-2 query written as plain SQL
// and executed through the cost-based join planner —
//
//	SELECT SUM(o.o_totalprice) AS total, COUNT(*) AS n
//	FROM customer c JOIN orders o ON c.c_custkey = o.o_custkey
//	WHERE c.c_acctbal <= -950
//
// The planner reads each table's statistics object (one small GET) and
// counts its filter over the object's sample, prices the baseline join
// against the Bloom join with the cloudsim cost model, and runs the winner.
// The program plans the statement with EXPLAIN and prints the plan tree its
// Exec holds (what -q "EXPLAIN …" shows in cmd/pushdownsql), then runs it
// and prints the result with its virtual runtime and cost.
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
	// Report virtual time as if this were the paper's SF-10 dataset on a
	// 32-way partitioned layout.
	db, err := engine.Open(ds.Bucket,
		engine.WithBackend("s3sim", s3api.NewInProc(st)),
		engine.WithScale(cloudsim.Scale{DataRatio: 10 / 0.005, PartRatio: 32.0 / 4}))
	if err != nil {
		log.Fatal(err)
	}

	const sql = "SELECT SUM(o.o_totalprice) AS total, COUNT(*) AS n " +
		"FROM customer c JOIN orders o ON c.c_custkey = o.o_custkey " +
		"WHERE c.c_acctbal <= -950"

	fmt.Println(sql)
	fmt.Println()

	_, pe, err := db.ExecStatement(ctx, "EXPLAIN "+sql)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(pe.QueryPlan())

	rel, e, err := db.QueryContext(ctx, sql)
	if err != nil {
		log.Fatal(err)
	}
	step := e.QueryPlan().Steps[0]
	fmt.Printf("\nchosen strategy: %s (%s)\n", step.Strategy, step.Reason)
	fmt.Printf("total=%v rows=%v\n", rel.Rows[0][0], rel.Rows[0][1])
	fmt.Printf("virtual runtime: %.2fs   cost: %s\n", e.RuntimeSeconds(), e.Cost())
}
