package engine_test

import (
	"context"
	"testing"

	"pushdowndb/internal/engine"
	"pushdowndb/internal/s3api"
	"pushdowndb/internal/store"
	"pushdowndb/internal/tpch"
)

// forcedStatements are TPC-H statements on each forced access strategy — the
// Section IV filters, the server-side and filtered group-bys and the
// server-side top-K — and as the planner runs them (the empty strategy).
var forcedStatements = []struct{ strategy, sql string }{
	{engine.StrategyBaseline, "SELECT * FROM lineitem WHERE l_quantity < 5"},
	{engine.StrategyBaseline, "SELECT * FROM lineitem ORDER BY l_extendedprice DESC LIMIT 10"},
	{engine.StrategyFiltered, "SELECT l_orderkey FROM lineitem WHERE l_quantity < 5"},
	{engine.StrategyIndexScan, "SELECT l_orderkey FROM lineitem WHERE l_extendedprice <= 2000"},
	{engine.StrategyBaseline, "SELECT l_returnflag, SUM(l_quantity) AS q, COUNT(*) AS n FROM lineitem GROUP BY l_returnflag"},
	{engine.StrategyFiltered, "SELECT l_returnflag, SUM(l_quantity) AS q, COUNT(*) AS n FROM lineitem GROUP BY l_returnflag"},
	{"", "SELECT l_returnflag, COUNT(*) AS n FROM lineitem GROUP BY l_returnflag"},
	{"", "SELECT l_orderkey, l_extendedprice FROM lineitem WHERE l_extendedprice <= 2000"},
	{"", "SELECT l_orderkey, l_extendedprice FROM lineitem ORDER BY l_extendedprice DESC LIMIT 5"},
	{"", "SELECT SUM(o.o_totalprice) FROM customer c JOIN orders o ON c.c_custkey = o.o_custkey WHERE c.c_acctbal <= 0"},
}

// handOperators runs each hand operator once over the TPC-H tables with
// their indexes, each on its statement.
var handOperators = map[string]func(e *engine.Exec) error{
	"IndexFilter per row": func(e *engine.Exec) error {
		_, err := e.IndexFilter("SELECT * FROM lineitem WHERE l_extendedprice <= 2000", engine.IndexFilterOptions{})
		return err
	},
	"IndexFilter multi-range": func(e *engine.Exec) error {
		_, err := e.IndexFilter("SELECT * FROM lineitem WHERE l_extendedprice <= 2000", engine.IndexFilterOptions{MultiRange: true})
		return err
	},
	"S3SideGroupBy": func(e *engine.Exec) error {
		_, err := e.S3SideGroupBy("SELECT l_returnflag, SUM(l_quantity) AS q, COUNT(*) AS n FROM lineitem GROUP BY l_returnflag")
		return err
	},
	"HybridGroupBy": func(e *engine.Exec) error {
		_, err := e.HybridGroupBy("SELECT l_suppkey, SUM(l_quantity) AS q, COUNT(*) AS n FROM lineitem GROUP BY l_suppkey",
			engine.HybridGroupByOptions{S3Groups: 2})
		return err
	},
	"SamplingTopK": func(e *engine.Exec) error {
		_, err := e.SamplingTopK("SELECT * FROM lineitem ORDER BY l_extendedprice DESC LIMIT 10", 0)
		return err
	},
	"baseline Join":  handJoin("*", engine.StrategyBaseline),
	"filtered Join":  handJoin("*", engine.StrategyFiltered),
	"bloom Join":     handJoin("*", engine.StrategyBloom),
	"bloom Join sum": handJoin("SUM(o.o_totalprice) AS s", engine.StrategyBloom),
}

// handJoin joins the customers at or below 0 to their orders, selecting
// items.
func handJoin(items, algorithm string) func(e *engine.Exec) error {
	js := engine.JoinSpec{Seed: 1,
		SQL: "SELECT " + items + " FROM customer c JOIN orders o ON c.c_custkey = o.o_custkey WHERE c.c_acctbal <= 0"}
	return func(e *engine.Exec) error {
		_, err := e.Join(js, algorithm)
		return err
	}
}

// TestEveryStorageRequestIsBilled counts the requests that reach the backend
// against the requests the cost model billed, for each hand operator and
// forcedStatements over the TPC-H tables with their indexes. Each runs
// once to warm the DB's catalog memo (index manifests, live partition sizes
// and statistics objects, read once per DB), then again on a fresh count:
// with no cache and no sharing, every Get, ranged GET, Select and Size of the
// second run must be a request on the bill. List is catalog traffic no query
// pays for, and is not counted.
func TestEveryStorageRequestIsBilled(t *testing.T) {
	ctx := context.Background()
	st := store.New()
	ds, err := tpch.LoadWithIndexes(ctx, st, tpch.Dataset{SF: 0.002, Seed: 42, Bucket: "tpch", Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	backend := s3api.NewCounting(s3api.NewInProc(st))
	db, err := engine.Open(ds.Bucket, engine.WithBackend("s3sim", backend))
	if err != nil {
		t.Fatal(err)
	}
	// check runs one execution twice and compares the second run's bill
	// with what reached the backend.
	check := func(what string, run func() (*engine.Exec, error)) {
		var e *engine.Exec
		for range 2 {
			backend.Reset()
			var err error
			if e, err = run(); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		}
		billed, _, _, _ := e.Metrics.Totals()
		served := backend.Gets() + backend.GetRangeCalls() + backend.Selects() + backend.Sizes()
		if billed != served {
			t.Errorf("%s: billed %d requests, the backend served %d (%d gets, %d ranged gets, %d selects, %d sizes)",
				what, billed, served, backend.Gets(), backend.GetRangeCalls(), backend.Selects(), backend.Sizes())
		}
	}
	for what, op := range handOperators {
		check(what, func() (*engine.Exec, error) {
			e := db.NewExecContext(ctx)
			return e, op(e)
		})
	}
	for _, q := range forcedStatements {
		check(q.strategy+": "+q.sql, func() (*engine.Exec, error) {
			_, e, err := db.QueryForced(ctx, q.sql, q.strategy)
			return e, err
		})
	}
}
