// Command pushdownsql loads CSV files into a storage backend and runs SQL
// against them through PushdownDB, printing the result plus the virtual
// runtime and the dollar cost the query would have had on AWS.
//
//	pushdownsql -table customer=./customer.csv \
//	            -q "SELECT c_mktsegment, COUNT(*) AS n FROM customer GROUP BY c_mktsegment ORDER BY n DESC"
//
// The -backend flag selects where table bytes live: the default "inproc"
// backend simulates in-region S3; "localfs" lays objects out on disk under
// -fsroot and advertises a local-disk cost profile, which the join planner
// prices differently (plain loads are free and fast there, so pushdown
// strategies win less often).
//
// Multi-table join queries go through the cost-based planner, which picks
// a Section-V join strategy (baseline vs Bloom join) per join; prefix the
// statement with EXPLAIN to see the plan tree, strategy choice and cost
// estimates without running the query:
//
//	pushdownsql -table customer=./customer.csv -table orders=./orders.csv \
//	            -q "EXPLAIN SELECT SUM(o.o_totalprice) FROM customer c JOIN orders o ON c.c_custkey = o.o_custkey WHERE c.c_acctbal <= -950"
//
// Secondary indexes: -index col@table (or a CREATE INDEX statement in -q)
// builds sorted per-partition index objects, after which selective
// predicates on that column can plan as IndexScans — index probe plus
// batched multi-range GETs instead of a full scan; EXPLAIN shows the
// three-way access-path estimate:
//
//	pushdownsql -table orders=./orders.csv -index o_custkey@orders \
//	            -q "EXPLAIN SELECT o_totalprice FROM orders WHERE o_custkey = 41"
//
// EXPLAIN ANALYZE runs the query under a trace instead and annotates every
// plan step with the actual rows, bytes and cost next to the estimates that
// picked it.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"pushdowndb/internal/cloudsim"
	"pushdowndb/internal/engine"
	"pushdowndb/internal/localfs"
	"pushdowndb/internal/s3api"
	"pushdowndb/internal/store"
)

type tableFlags []string

func (t *tableFlags) String() string     { return strings.Join(*t, ",") }
func (t *tableFlags) Set(v string) error { *t = append(*t, v); return nil }

func main() {
	var (
		tables  tableFlags
		indexes tableFlags
		query   = flag.String("q", "", "SQL statement: a SELECT (single-table, or multi-table with JOIN ... ON / comma joins), EXPLAIN [ANALYZE] SELECT ..., CREATE INDEX name ON t (col), or DROP INDEX")
		parts   = flag.Int("parts", 4, "partitions per table")
		backend = flag.String("backend", "inproc", "storage backend: inproc (simulated in-region S3) or localfs (objects on disk under -fsroot)")
		fsroot  = flag.String("fsroot", "", "localfs backend root directory (default: a temp dir)")
		sim     = flag.Float64("sim", 1, "simulate the data at N× its actual size for the virtual clock, cost model and join planner")
		workers = flag.Int("workers", 1, "worker goroutines for server-side operators (capped at the cost model's cores); the virtual clock and the join planner both price row work at this parallelism")
		cacheMB = flag.Int("cache-mb", 0, "select-result cache budget in MiB (0 = off): repeated scans are served from the compute tier with zero storage requests, and the planner prices resident scans as cache hits")
	)
	flag.Var(&tables, "table", "name=path.csv (repeatable)")
	flag.Var(&indexes, "index", "col@table (repeatable): build a secondary index on the loaded table before planning, so selective predicates on that column can run as IndexScans")
	flag.Parse()
	if *query == "" || len(tables) == 0 {
		fmt.Fprintln(os.Stderr, "usage: pushdownsql -table name=path.csv [-table ...] -q SQL")
		os.Exit(2)
	}
	if *sim <= 0 {
		fatal(fmt.Errorf("-sim must be > 0, got %g", *sim))
	}
	if *workers < 1 {
		fatal(fmt.Errorf("-workers must be >= 1, got %d", *workers))
	}

	// Pick the backend and its loading path.
	ctx := context.Background()
	var be *s3api.Local
	switch *backend {
	case "inproc":
		be = s3api.NewInProc(store.New())
	case "localfs":
		root := *fsroot
		if root == "" {
			dir, err := os.MkdirTemp("", "pushdowndb-localfs-")
			if err != nil {
				fatal(err)
			}
			defer os.RemoveAll(dir)
			root = dir
		}
		be = localfs.New(root)
		fmt.Fprintf(os.Stderr, "localfs backend rooted at %s\n", root)
	default:
		fatal(fmt.Errorf("unknown -backend %q (want inproc or localfs)", *backend))
	}

	for _, spec := range tables {
		name, path, ok := strings.Cut(spec, "=")
		if !ok {
			fatal(fmt.Errorf("bad -table %q, want name=path", spec))
		}
		rows, err := engine.LoadCSVFile(ctx, be, "local", name, path, *parts)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "loaded %s: %d rows, %d partitions\n", name, rows, *parts)
	}

	opts := []engine.Option{
		engine.WithBackend(*backend, be),
		engine.WithWorkers(*workers),
	}
	if *sim != 1 {
		opts = append(opts, engine.WithScale(cloudsim.Scale{DataRatio: *sim, PartRatio: 1}))
	}
	if *cacheMB > 0 {
		opts = append(opts, engine.WithResultCache(int64(*cacheMB)<<20))
	}
	db, err := engine.Open("local", opts...)
	if err != nil {
		fatal(err)
	}
	for _, spec := range indexes {
		col, table, ok := strings.Cut(spec, "@")
		if !ok {
			fatal(fmt.Errorf("bad -index %q, want col@table", spec))
		}
		if err := db.CreateIndex(ctx, table, col); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "built index on %s(%s)\n", table, col)
	}
	rel, e, err := db.ExecStatement(ctx, *query)
	if err != nil {
		fatal(err)
	}
	if rel == nil {
		// DDL (CREATE INDEX / DROP INDEX): no relation, no metered cost.
		fmt.Println("ok")
		return
	}
	if len(rel.Cols) == 1 && rel.Cols[0] == "plan" {
		// EXPLAIN [ANALYZE]: the relation carries the render line by line;
		// print it raw, not as a table. ANALYZE already embeds its own
		// runtime/cost totals; a plain EXPLAIN's e holds only its planning.
		for _, row := range rel.Rows {
			fmt.Println(row[0].AsString())
		}
		return
	}
	fmt.Print(rel)
	fmt.Printf("\nvirtual runtime: %.3fs   cost: %s\n", e.RuntimeSeconds(), e.Cost())
	if hits, bytes := e.Metrics.CacheTotals(); hits > 0 {
		fmt.Printf("result cache: %d scan(s) served locally (%.1f MB not re-bought from storage)\n",
			hits, float64(bytes)/1e6)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pushdownsql:", err)
	os.Exit(1)
}
