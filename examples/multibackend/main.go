// Multibackend: one query, two storage tiers. The customers table lives
// on a localfs backend (objects on disk, free and fast), while the orders
// table lives on a simulated in-region S3 backend; a table→backend
// catalog routes each scan. The planner prices every join strategy with
// the profile each backend advertises — run it and watch the explain
// output attribute scans to their backends — and the per-phase cost
// accounting bills each side at its own tier's rates.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"pushdowndb/internal/engine"
	"pushdowndb/internal/localfs"
	"pushdowndb/internal/s3api"
	"pushdowndb/internal/store"
)

func main() {
	ctx := context.Background()

	// Tier 1: customers on the local filesystem.
	dir, err := os.MkdirTemp("", "pushdowndb-multibackend-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	local := localfs.New(dir)
	custHeader := []string{"ck", "name", "bal"}
	custRows := [][]string{
		{"1", "ada", "-600"},
		{"2", "grace", "120"},
		{"3", "edsger", "-800"},
		{"4", "barbara", "45"},
	}
	if err := engine.PartitionTableTo(ctx, local, "shop", "customers", custHeader, custRows, 2); err != nil {
		log.Fatal(err)
	}

	// Tier 2: orders on simulated in-region S3.
	st := store.New()
	s3 := s3api.NewInProc(st)
	ordHeader := []string{"ok", "ck", "price"}
	ordRows := [][]string{
		{"100", "1", "9.50"}, {"101", "1", "12.00"},
		{"102", "2", "3.25"}, {"103", "3", "8.75"},
		{"104", "3", "1.10"}, {"105", "4", "2.20"},
	}
	if err := engine.PartitionTableTo(ctx, s3, "shop", "orders", ordHeader, ordRows, 2); err != nil {
		log.Fatal(err)
	}

	// One DB over both tiers: the catalog says where each table lives.
	db, err := engine.Open("shop",
		engine.WithBackend("disk", local),
		engine.WithBackend("s3", s3),
		engine.WithTableBackend("customers", "disk"),
		engine.WithTableBackend("orders", "s3"),
		engine.WithDefaultBackend("s3"),
	)
	if err != nil {
		log.Fatal(err)
	}

	const sql = "SELECT c.name, SUM(o.price) AS spent " +
		"FROM customers c JOIN orders o ON c.ck = o.ck " +
		"WHERE c.bal < 0 GROUP BY c.name ORDER BY spent DESC"

	plan, _, err := db.ExecStatement(ctx, "EXPLAIN "+sql)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("plan (note the per-backend scan attribution):")
	for _, line := range plan.Rows {
		fmt.Println(line[0].AsString())
	}

	rel, e, err := db.QueryContext(ctx, sql)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nresult:")
	fmt.Print(rel)
	fmt.Printf("\nvirtual runtime %.4fs, cost %s\n", e.RuntimeSeconds(), e.Cost())
	fmt.Println("(the localfs side bills nothing; every S3-side request, scan and byte is priced)")
}
