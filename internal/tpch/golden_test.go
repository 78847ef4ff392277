package tpch

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"pushdowndb/internal/engine"
	"pushdowndb/internal/s3api"
	"pushdowndb/internal/store"
)

// TPC-H golden-answer regression: a scale-tiny generated dataset with
// checked-in expected results for the SQL-front-end query set, executed
// through concurrent QueryContext calls sharing one DB with the result
// cache on. Under -race this hammers the cache's locking; the goldens pin
// the answers byte-for-byte so neither caching, planning changes nor
// worker-pool reshuffles can silently move a result.
//
// Regenerate with: go test ./internal/tpch -run TestGoldenQueries -update

var updateGolden = flag.Bool("update", false, "rewrite the TPC-H golden files")

// goldenQueries is the SQL query set: the paper's TPC-H subset where it is
// expressible through the SQL front end (Q1, Q3, Q6, Q14, Q19; Q17's
// correlated subquery is not SQL-front-end expressible).
var goldenQueries = []struct{ name, sql string }{
	{"q1", "SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty, " +
		"SUM(l_extendedprice) AS sum_base_price, " +
		"SUM(l_extendedprice * (1 - l_discount)) AS sum_disc_price, " +
		"SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)) AS sum_charge, " +
		"AVG(l_quantity) AS avg_qty, AVG(l_extendedprice) AS avg_price, " +
		"AVG(l_discount) AS avg_disc, COUNT(*) AS count_order " +
		"FROM lineitem WHERE l_shipdate <= '1998-09-02' " +
		"GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus"},
	{"q3", "SELECT l_orderkey, SUM(l_extendedprice * (1 - l_discount)) AS revenue, " +
		"o_orderdate, o_shippriority " +
		"FROM customer c JOIN orders o ON c.c_custkey = o.o_custkey " +
		"JOIN lineitem l ON o.o_orderkey = l.l_orderkey " +
		"WHERE c.c_mktsegment = 'BUILDING' AND o.o_orderdate < '1995-03-15' AND l.l_shipdate > '1995-03-15' " +
		"GROUP BY l_orderkey, o_orderdate, o_shippriority " +
		"ORDER BY revenue DESC, o_orderdate LIMIT 10"},
	{"q6", "SELECT SUM(l_extendedprice * l_discount) AS revenue FROM lineitem " +
		"WHERE l_shipdate >= '1994-01-01' AND l_shipdate < '1995-01-01' " +
		"AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24"},
	{"q14", "SELECT 100.0 * SUM(CASE WHEN p_type LIKE 'PROMO%' THEN l_extendedprice * (1 - l_discount) ELSE 0 END) " +
		"/ SUM(l_extendedprice * (1 - l_discount)) AS promo_revenue " +
		"FROM lineitem l JOIN part p ON l.l_partkey = p.p_partkey " +
		"WHERE l.l_shipdate >= '1995-09-01' AND l.l_shipdate < '1995-10-01'"},
	{"q19", "SELECT SUM(l_extendedprice * (1 - l_discount)) AS revenue " +
		"FROM lineitem l JOIN part p ON l.l_partkey = p.p_partkey " +
		"WHERE l.l_shipmode IN ('AIR', 'AIR REG') AND l.l_shipinstruct = 'DELIVER IN PERSON' " +
		"AND l.l_quantity BETWEEN 1 AND 30 " +
		"AND ((p.p_brand = 'Brand#12' AND l.l_quantity BETWEEN 1 AND 11) " +
		"OR (p.p_brand = 'Brand#23' AND l.l_quantity BETWEEN 10 AND 20) " +
		"OR (p.p_brand = 'Brand#34' AND l.l_quantity BETWEEN 20 AND 30))"},
}

// goldenDB builds the tiny deterministic dataset behind a counting backend
// with the result cache enabled.
func goldenDB(t *testing.T) (*engine.DB, *s3api.Counting) {
	t.Helper()
	st := store.New()
	ds, err := Load(context.Background(), st, Dataset{SF: 0.002, Seed: 42, Bucket: "tpch", Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	counting := s3api.NewCounting(s3api.NewInProc(st))
	db, err := engine.Open(ds.Bucket,
		engine.WithBackend("s3sim", counting),
		engine.WithResultCache(64<<20))
	if err != nil {
		t.Fatal(err)
	}
	return db, counting
}

func renderGolden(rel *engine.Relation) string {
	var b strings.Builder
	b.WriteString(strings.Join(rel.Cols, "|"))
	b.WriteByte('\n')
	for _, row := range rel.Rows {
		parts := make([]string, len(row))
		for j, v := range row {
			parts[j] = v.String()
		}
		b.WriteString(strings.Join(parts, "|"))
		b.WriteByte('\n')
	}
	return b.String()
}

func goldenPath(name string) string {
	return filepath.Join("testdata", "golden", name+".golden")
}

// checkGolden compares rel, rendered, with the golden file name, or
// rewrites the file under -update.
func checkGolden(t *testing.T, name string, rel *engine.Relation) {
	t.Helper()
	got := renderGolden(rel)
	if *updateGolden {
		if err := os.WriteFile(goldenPath(name), []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath(name))
	if err != nil {
		t.Fatalf("missing golden (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("answer drifted from golden\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestGoldenQueries(t *testing.T) {
	db, _ := goldenDB(t)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Join("testdata", "golden"), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range goldenQueries {
		t.Run(q.name, func(t *testing.T) {
			rel, _, err := db.QueryContext(context.Background(), q.sql)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, q.name, rel)
		})
	}
}

// TestBaselineGoldens pins each hand-written Baseline plan's answer on the
// golden dataset. The benchmark's oracle runs these same functions, so it
// cannot see a mistake in what their loads decode; these files can.
//
// Regenerate with: go test ./internal/tpch -run TestBaselineGoldens -update
func TestBaselineGoldens(t *testing.T) {
	db, _ := goldenDB(t)
	for _, q := range Queries() {
		name := "base_" + strings.ToLower(q.Name)
		t.Run(name, func(t *testing.T) {
			rel, _, err := q.Baseline(db)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, name, rel)
		})
	}
}

// TestGoldenQueriesConcurrent runs the whole query set from many
// goroutines sharing one DB — every result must still match its golden,
// cold or warm, and the warm tail must be served with zero backend Select
// requests. Run under -race this is the locking stress test for the result
// cache, the stats cache and the metrics.
func TestGoldenQueriesConcurrent(t *testing.T) {
	if *updateGolden {
		t.Skip("goldens are being rewritten")
	}
	db, counting := goldenDB(t)
	want := map[string]string{}
	for _, q := range goldenQueries {
		data, err := os.ReadFile(goldenPath(q.name))
		if err != nil {
			t.Fatalf("missing golden (regenerate with -update): %v", err)
		}
		want[q.name] = string(data)
	}

	const rounds = 4
	run := func() error {
		var wg sync.WaitGroup
		errs := make(chan error, len(goldenQueries)*rounds)
		for _, q := range goldenQueries {
			for r := 0; r < rounds; r++ {
				wg.Add(1)
				go func(name, sql string) {
					defer wg.Done()
					rel, _, err := db.QueryContext(context.Background(), sql)
					if err != nil {
						errs <- fmt.Errorf("%s: %w", name, err)
						return
					}
					if got := renderGolden(rel); got != want[name] {
						errs <- fmt.Errorf("%s: concurrent answer drifted\ngot:\n%s\nwant:\n%s", name, got, want[name])
					}
				}(q.name, q.sql)
			}
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			return err
		}
		return nil
	}
	if err := run(); err != nil { // cold: fills caches concurrently
		t.Fatal(err)
	}
	before := counting.Selects()
	if err := run(); err != nil { // warm: everything resident
		t.Fatal(err)
	}
	if d := counting.Selects() - before; d != 0 {
		t.Errorf("warm concurrent round issued %d backend Select requests, want 0", d)
	}
}
