// TPC-H walkthrough: run the paper's six queries (Q1, Q3, Q6, Q14, Q17,
// Q19) in both baseline and optimized form over a generated dataset and
// print the Fig.-10-style comparison, verifying both plans agree on the
// answers.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"pushdowndb/internal/cloudsim"
	"pushdowndb/internal/engine"
	"pushdowndb/internal/s3api"
	"pushdowndb/internal/store"
	"pushdowndb/internal/tpch"
)

func main() {
	sf := flag.Float64("sf", 0.005, "generated TPC-H scale factor")
	flag.Parse()

	ctx := context.Background()
	st := store.New()
	ds, err := tpch.Load(ctx, st, tpch.Dataset{SF: *sf, Seed: 42, Partitions: 4})
	if err != nil {
		log.Fatal(err)
	}
	db, err := engine.Open(ds.Bucket,
		engine.WithBackend("s3sim", s3api.NewInProc(st)),
		engine.WithScale(cloudsim.Scale{DataRatio: 10 / *sf, PartRatio: 32.0 / 4}))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("TPC-H at generated SF %g, virtual clock reporting at SF 10\n\n", *sf)
	fmt.Printf("%-6s %14s %14s %9s %12s %12s\n",
		"query", "baseline(s)", "optimized(s)", "speedup", "base cost", "opt cost")
	for _, q := range tpch.Queries() {
		baseRel, be, err := q.Baseline(db)
		if err != nil {
			log.Fatalf("%s baseline: %v", q.Name, err)
		}
		optRel, oe, err := q.Optimized(db)
		if err != nil {
			log.Fatalf("%s optimized: %v", q.Name, err)
		}
		if baseRel.String() != optRel.String() {
			log.Fatalf("%s: plans disagree\nbaseline:\n%s\noptimized:\n%s", q.Name, baseRel, optRel)
		}
		fmt.Printf("%-6s %14.1f %14.1f %8.1fx %12.5f %12.5f\n",
			q.Name, be.RuntimeSeconds(), oe.RuntimeSeconds(),
			be.RuntimeSeconds()/oe.RuntimeSeconds(),
			be.Cost().Total(), oe.Cost().Total())
	}

	// Show one actual result set.
	rel, _, err := tpch.Queries()[0].Optimized(db)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nQ1 (pricing summary) result:")
	fmt.Print(rel)
}
