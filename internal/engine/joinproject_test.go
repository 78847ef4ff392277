package engine_test

import (
	"context"
	"slices"
	"testing"

	"pushdowndb/internal/engine"
	"pushdowndb/internal/s3api"
	"pushdowndb/internal/store"
	"pushdowndb/internal/tpch"
)

// TestJoinScansShipOnlyServerColumns: every scan of a planned join returns
// the columns the server reads once the scans return — the select list, the
// join keys, the residual, GROUP BY and ORDER BY — and no column that only
// the scan's own pushed filter reads.
func TestJoinScansShipOnlyServerColumns(t *testing.T) {
	ctx := context.Background()
	st := store.New()
	ds, err := tpch.Load(ctx, st, tpch.Dataset{SF: 0.002, Seed: 42, Bucket: "tpch", Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	db, err := engine.Open(ds.Bucket, engine.WithBackend("s3sim", s3api.NewInProc(st)))
	if err != nil {
		t.Fatal(err)
	}
	const custOrders = " FROM customer c JOIN orders o ON c.c_custkey = o.o_custkey WHERE c.c_mktsegment = 'BUILDING' AND o.o_orderdate < '1995-03-15'"
	for _, c := range []struct {
		name, sql string
		project   map[string][]string // by scan name; nil: every column
	}{
		// c_mktsegment and l_shipdate are read by their scans' filters only.
		{"q3", q3SQL, map[string][]string{
			"c": {"c_custkey"},
			"o": {"o_orderdate", "o_shippriority", "o_custkey", "o_orderkey"},
			"l": {"l_orderkey", "l_extendedprice", "l_discount"},
		}},
		// l_quantity is pushed and read by the residual OR; l_shipmode and
		// l_shipinstruct only by the pushed filter.
		{"q19", tpchGoldens[3], map[string][]string{
			"l": {"l_extendedprice", "l_discount", "l_quantity", "l_partkey"},
			"p": {"p_brand", "p_partkey"},
		}},
		{"filtered-and-selected", "SELECT c.c_mktsegment, o.o_totalprice" + custOrders, map[string][]string{
			"c": {"c_mktsegment", "c_custkey"},
			"o": {"o_totalprice", "o_custkey"},
		}},
		// o_orderdate is filtered on and sorted by; t names an output column.
		{"key-only", "SELECT o.o_orderkey, o.o_totalprice AS t" + custOrders + " ORDER BY o.o_orderdate, t", map[string][]string{
			"c": {"c_custkey"},
			"o": {"o_orderkey", "o_totalprice", "o_custkey", "o_orderdate"},
		}},
		{"star", "SELECT *" + custOrders, map[string][]string{"c": nil, "o": nil}},
	} {
		_, e, err := db.ExecStatement(ctx, "EXPLAIN "+c.sql)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		scans := e.QueryPlan().Scans
		if len(scans) != len(c.project) {
			t.Fatalf("%s: %d scans, want %d", c.name, len(scans), len(c.project))
		}
		for _, sc := range scans {
			if want, ok := c.project[sc.Name()]; !ok || !slices.Equal(sc.Project, want) || (want == nil) != (sc.Project == nil) {
				t.Errorf("%s: scan %s projects %q, want %q", c.name, sc.Name(), sc.Project, want)
			}
		}
	}
}
