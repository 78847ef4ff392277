package engine_test

import (
	"context"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"pushdowndb/internal/engine"
	"pushdowndb/internal/race"
	"pushdowndb/internal/s3api"
	"pushdowndb/internal/store"
	"pushdowndb/internal/tpch"
	"pushdowndb/internal/value"
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

// TestPlannedQ14CutsNoJoinedRelation: the planned Q14's last join folds its
// joined rows into the tail's aggregation as its probe decodes them, so it
// allocates no relation of them. Beside the same join selecting three of
// its columns, which cuts the joined rows and then projects them, it
// allocates less by more than the joined rows' cells and row headers take;
// building the joined relation for Q14 too, the difference was the
// projection's alone, well short of that.
func TestPlannedQ14CutsNoJoinedRelation(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation sizes differ under the race detector")
	}
	ctx := context.Background()
	st := store.New()
	ds, err := tpch.Load(ctx, st, tpch.Dataset{SF: 0.01, Seed: 42, Bucket: "tpch", Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	db, err := engine.Open(ds.Bucket, engine.WithBackend("s3sim", s3api.NewInProc(st)))
	if err != nil {
		t.Fatal(err)
	}
	q14 := tpchGoldens[2]
	plain := "SELECT l.l_extendedprice, l.l_discount, p.p_type FROM lineitem l JOIN part p ON l.l_partkey = p.p_partkey " +
		"WHERE l.l_shipdate >= '1995-09-01' AND l.l_shipdate < '1995-10-01'"
	const runs = 4
	bytes := func(sql string) (uint64, *engine.Exec) {
		_, e, err := db.QueryContext(ctx, sql) // warm: the statistics are cached
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			if _, _, err := db.QueryContext(ctx, sql); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs, e
	}
	folded, e := bytes(q14)
	cut, _ := bytes(plain)
	p := e.QueryPlan()
	last := p.Steps[len(p.Steps)-1]
	width := 0
	for _, sc := range p.Scans {
		width += len(sc.Project)
	}
	joined := uint64(last.ActualRows) * uint64(width*int(unsafe.Sizeof(value.Value{}))+int(unsafe.Sizeof(engine.Row{})))
	t.Logf("Q14: %d bytes a run; the plain join: %d; %d joined rows of %d cells: %d bytes", folded, cut, last.ActualRows, width, joined)
	if last.ActualRows < 100 {
		t.Fatalf("Q14 joined %d rows, too few to tell", last.ActualRows)
	}
	if folded+joined > cut {
		t.Errorf("Q14 allocates %d bytes a run, the plain join %d: want at least the %d bytes of its %d joined rows fewer", folded, cut, joined, last.ActualRows)
	}
}
