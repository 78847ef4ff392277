// Bloom join walkthrough: the paper's Listing-2 query —
//
//	SELECT SUM(o_totalprice) FROM customer, orders
//	WHERE o_custkey = c_custkey AND c_acctbal <= -950
//
// executed three ways (baseline, filtered, Bloom join) over a generated
// TPC-H dataset, reporting paper-scale virtual runtime and AWS cost for
// each, plus the Bloom filter's S3 Select predicate itself.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"pushdowndb/internal/bloom"
	"pushdowndb/internal/cloudsim"
	"pushdowndb/internal/engine"
	"pushdowndb/internal/s3api"
	"pushdowndb/internal/sqlparse"
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

	spec := engine.JoinSpec{
		SQL: "SELECT SUM(o.o_totalprice) AS total, COUNT(*) AS n " +
			"FROM customer c JOIN orders o ON c.c_custkey = o.o_custkey WHERE c.c_acctbal <= -950",
		TargetFPR: 0.01,
		Seed:      7,
	}

	fmt.Println(spec.SQL)
	fmt.Println()
	for _, algo := range []string{engine.StrategyBaseline, engine.StrategyFiltered, engine.StrategyBloom} {
		e := db.NewExec()
		rel, err := e.Join(spec, algo)
		if err != nil {
			log.Fatal(err)
		}
		_, _, returned, got := e.Metrics.Totals()
		fmt.Printf("%-9s total=%-14v rows=%-6v runtime=%6.2fs  moved=%8.1fKB  cost=%s\n",
			algo, rel.Rows[0][0], rel.Rows[0][1],
			e.RuntimeSeconds(), float64(returned+got)/1e3, e.Cost())
	}

	// What the shipped predicate looks like (paper Listing 1).
	f := bloom.New(8, 0.05, rand.New(rand.NewSource(1)))
	for _, k := range []int64{3, 17, 42} {
		f.Add(k)
	}
	fmt.Println("\nexample S3 Select Bloom predicate for keys {3, 17, 42}:")
	fmt.Println("  WHERE " + f.SQLPredicate(&sqlparse.Column{Name: "o_custkey"}).String())
}
