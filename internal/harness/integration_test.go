package harness

import (
	"context"
	"net/http/httptest"
	"testing"

	"pushdowndb/internal/engine"
	"pushdowndb/internal/s3api"
	"pushdowndb/internal/s3http"
	"pushdowndb/internal/store"
	"pushdowndb/internal/tpch"
)

// The integration test runs PushdownDB against the storage service over
// the real HTTP wire (ranged GETs, multi-range GETs, S3 Select requests)
// and checks it produces exactly the same answers and byte accounting as
// the in-process path.

func TestEngineOverHTTPMatchesInProc(t *testing.T) {
	st := store.New()
	ds, err := tpch.LoadWithIndexes(context.Background(), st, tpch.Dataset{SF: 0.001, Seed: 3, Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s3http.NewServer(s3api.NewInProc(st)))
	defer srv.Close()

	inprocDB, err := engine.Open(ds.Bucket,
		engine.WithBackend("inproc", s3api.NewInProc(st)))
	if err != nil {
		t.Fatal(err)
	}
	httpDB, err := engine.Open(ds.Bucket,
		engine.WithBackend("s3http", s3http.NewClient(srv.URL, srv.Client())))
	if err != nil {
		t.Fatal(err)
	}

	t.Run("TPCHQueries", func(t *testing.T) {
		for _, q := range tpch.Queries() {
			a, ea, err := q.Optimized(inprocDB)
			if err != nil {
				t.Fatalf("%s in-proc: %v", q.Name, err)
			}
			b, eb, err := q.Optimized(httpDB)
			if err != nil {
				t.Fatalf("%s over HTTP: %v", q.Name, err)
			}
			if len(a.Rows) != len(b.Rows) {
				t.Fatalf("%s: %d rows in-proc vs %d over HTTP", q.Name, len(a.Rows), len(b.Rows))
			}
			for i := range a.Rows {
				for j := range a.Rows[i] {
					av, bv := a.Rows[i][j].String(), b.Rows[i][j].String()
					if av != bv {
						t.Fatalf("%s row %d col %d: %q vs %q", q.Name, i, j, av, bv)
					}
				}
			}
			// Byte accounting must be identical: the wire changes nothing
			// about what the storage side scanned or returned.
			_, aScan, aRet, aGet := ea.Metrics.Totals()
			_, bScan, bRet, bGet := eb.Metrics.Totals()
			if aScan != bScan || aRet != bRet || aGet != bGet {
				t.Errorf("%s accounting differs: inproc(%d,%d,%d) http(%d,%d,%d)",
					q.Name, aScan, aRet, aGet, bScan, bRet, bGet)
			}
		}
	})

	t.Run("IndexFilter", func(t *testing.T) {
		for _, multi := range []bool{false, true} {
			const sql = "SELECT * FROM lineitem WHERE l_extendedprice <= 2000"
			rel, err := httpDB.NewExec().IndexFilter(sql, engine.IndexFilterOptions{MultiRange: multi})
			if err != nil {
				t.Fatalf("multi=%v: %v", multi, err)
			}
			want, _, err := inprocDB.QueryForced(context.Background(), sql, engine.StrategyBaseline)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameRows([]*engine.Relation{want, rel}); err != nil {
				t.Fatalf("multi=%v: %v", multi, err)
			}
		}
	})

	t.Run("GroupByAndTopK", func(t *testing.T) {
		const groupSQL = "SELECT o_orderpriority, SUM(o_custkey) AS total, COUNT(*) AS n FROM orders GROUP BY o_orderpriority"
		want, _, err := inprocDB.QueryForced(context.Background(), groupSQL, engine.StrategyBaseline)
		if err != nil {
			t.Fatal(err)
		}
		for name, db := range map[string]*engine.DB{"in process": inprocDB, "over HTTP": httpDB} {
			got, err := db.NewExec().S3SideGroupBy(groupSQL)
			if err != nil {
				t.Fatal(err)
			}
			if got.String() != want.String() {
				t.Fatalf("%s S3-side group-by:\n%s\nthe forced baseline answers\n%s", name, got, want)
			}
		}

		// The sampling top-K answers its statement over either wire, as the
		// forced baseline does.
		sql := "SELECT * FROM lineitem ORDER BY l_extendedprice LIMIT 7"
		want, _, err = inprocDB.QueryForced(context.Background(), sql, engine.StrategyBaseline)
		if err != nil {
			t.Fatal(err)
		}
		for name, db := range map[string]*engine.DB{"in process": inprocDB, "over HTTP": httpDB} {
			got, err := db.NewExec().SamplingTopK(sql, 200)
			if err != nil {
				t.Fatal(err)
			}
			if got.String() != want.String() {
				t.Fatalf("sampling top-K %s:\n%s\nwant\n%s", name, got, want)
			}
		}
	})

	t.Run("SQLFrontEnd", func(t *testing.T) {
		sql := "SELECT o_orderpriority, COUNT(*) AS n FROM orders GROUP BY o_orderpriority ORDER BY o_orderpriority"
		a, _, err := inprocDB.QueryContext(context.Background(), sql)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := httpDB.QueryContext(context.Background(), sql)
		if err != nil {
			t.Fatal(err)
		}
		if a.String() != b.String() {
			t.Errorf("SQL results differ over HTTP:\n%s\nvs\n%s", a, b)
		}
	})
}
