package engine

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"pushdowndb/internal/colformat"
	"pushdowndb/internal/s3api"
	"pushdowndb/internal/store"
	"pushdowndb/internal/value"
)

// statsReads counts the statistics-object reads that reach a backend.
type statsReads struct {
	s3api.Backend
	n *atomic.Int64
}

func (b statsReads) GetRange(ctx context.Context, bucket, key string, first, last int64) ([]byte, error) {
	if strings.HasSuffix(key, "/_stats") {
		b.n.Add(1)
	}
	return b.Backend.GetRange(ctx, bucket, key, first, last)
}

// forcedStore writes the same 1,200 rows as a CSV table f, indexed on k,
// and as a colformat table f_col, which has no index.
func forcedStore(t testing.TB) *store.Store {
	t.Helper()
	st := store.New()
	schema := colformat.Schema{{Name: "k", Kind: value.KindInt}, {Name: "g", Kind: value.KindInt}, {Name: "v", Kind: value.KindFloat}}
	var rows [][]string
	var typed [][]value.Value
	for i := range 1200 {
		v := float64((i*7919)%1000)/4 - 100
		rows = append(rows, []string{fmt.Sprint(i), fmt.Sprint(i % 7), fmt.Sprint(v)})
		typed = append(typed, []value.Value{value.Int(int64(i)), value.Int(int64(i % 7)), value.Float(v)})
	}
	if err := PartitionTable(context.Background(), st, testBucket, "f", []string{"k", "g", "v"}, rows, 4); err != nil {
		t.Fatal(err)
	}
	if err := PartitionTableColumnar(st, testBucket, "f_col", schema, typed, 4, 64, true); err != nil {
		t.Fatal(err)
	}
	buildIndex(t, st, testBucket, "f", "k")
	return st
}

// TestForcedStrategies: a statement forced onto each single-table access
// strategy answers byte for byte as the planner's choice does, on CSV and
// colformat, without reading a statistics object, and its plan says it was
// forced. A strategy that cannot run the statement is a bad_request that
// says why, never a silent fallback.
func TestForcedStrategies(t *testing.T) {
	ctx := context.Background()
	st := forcedStore(t)
	var reads atomic.Int64
	forcedDB, err := Open(testBucket, WithBackend("s3sim", statsReads{s3api.NewInProc(st), &reads}))
	if err != nil {
		t.Fatal(err)
	}
	plannedDB := openTestDB(t, st)
	statements := []string{
		"SELECT * FROM %s WHERE k < 300",
		"SELECT k, v * 2 AS w FROM %s WHERE k < 900 AND g = 3",
		"SELECT g, SUM(v) AS s, COUNT(*) AS n, MAX(v) AS hi FROM %s WHERE k < 700 GROUP BY g",
		"SELECT g %% 3, SUM(k) FROM %s WHERE k < 900 GROUP BY g %% 3",
		"SELECT g %% 3 + 1, COUNT(*) FROM %s WHERE k < 1100 GROUP BY g %% 3",
		"SELECT g + k %% 5, COUNT(*) FROM %s WHERE k < 300 GROUP BY g, g + k %% 5",
		"SELECT k, v FROM %s WHERE k < 1000 ORDER BY v DESC, k LIMIT 7",
	}
	for table, strategies := range map[string][]string{
		"f":     {StrategyBaseline, StrategyFiltered, StrategyIndexScan},
		"f_col": {StrategyBaseline, StrategyFiltered},
	} {
		for _, stmt := range statements {
			sql := fmt.Sprintf(stmt, table)
			want, _, err := plannedDB.QueryContext(ctx, sql)
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			for _, strategy := range strategies {
				got, e, err := forcedDB.QueryForced(ctx, sql, strategy)
				if err != nil {
					t.Fatalf("%s forced %s: %v", sql, strategy, err)
				}
				if got.String() != want.String() {
					t.Errorf("%s forced %s:\n%s\nplanned:\n%s", sql, strategy, got, want)
				}
				if plan := e.QueryPlan().String(); !strings.Contains(plan, ": "+strategy+" — forced") {
					t.Errorf("%s forced %s: the plan does not say so:\n%s", sql, strategy, plan)
				}
			}
		}
	}
	if n := reads.Load(); n != 0 {
		t.Errorf("forced plans read a statistics object %d times", n)
	}

	for _, c := range []struct{ strategy, sql, why string }{
		{StrategyIndexScan, "SELECT * FROM f_col WHERE k < 10", "the table has no live index"},
		{StrategyIndexScan, "SELECT * FROM f WHERE g = 3", "no conjunct of the WHERE clause compares an indexed column"},
		{StrategyIndexScan, "SELECT * FROM f", "no conjunct of the WHERE clause compares an indexed column"},
		{StrategyBloom, "SELECT * FROM f WHERE k < 10", "not a single-table access path"},
		{"seqscan", "SELECT * FROM f WHERE k < 10", "not a single-table access path"},
		{StrategyFiltered, "SELECT a.k FROM f a JOIN f_col b ON a.k = b.k", "a join's strategies are chosen per join step"},
	} {
		_, _, err := forcedDB.QueryForced(ctx, c.sql, c.strategy)
		if s3api.KindOf(err) != s3api.KindBadRequest || !strings.Contains(fmt.Sprint(err), c.why) {
			t.Errorf("%s forced %q: %v, want a bad_request saying %q", c.sql, c.strategy, err, c.why)
		}
	}
}

// TestLikePatternPerRow: a LIKE whose pattern is a column matches each row
// against that row's own pattern — a NULL pattern keeps nothing, a number
// matches as its text — on the forced baseline, the forced filtered scan and
// the planner's choice, at 1 and 3 workers, over a
// table of three partitions.
func TestLikePatternPerRow(t *testing.T) {
	ctx := context.Background()
	st := store.New()
	rows := [][]string{
		{"ab", "a%"}, {"xb", "x%"}, {"xb", "a%"}, {"q", "_"},
		{"qq", "_"}, {"zz", ""}, {"5", "5"}, {"50", "5%"}, {"ba", "%a"},
	}
	if err := PartitionTable(ctx, st, testBucket, "lk", []string{"name", "flag"}, rows, 3); err != nil {
		t.Fatal(err)
	}
	for sql, want := range map[string]string{
		"SELECT name, flag FROM lk WHERE name LIKE flag":          "ab|a%\nxb|x%\nq|_\n5|5\n50|5%\nba|%a",
		"SELECT name, flag FROM lk WHERE name NOT LIKE flag":      "xb|a%\nqq|_",
		"SELECT name, name LIKE flag FROM lk WHERE flag LIKE '_'": "q|true\nqq|false\n5|true",
	} {
		for _, workers := range []int{1, 3} {
			db, err := Open(testBucket, WithBackend("s3sim", s3api.NewInProc(st)), WithWorkers(workers))
			if err != nil {
				t.Fatal(err)
			}
			for _, strategy := range []string{StrategyBaseline, StrategyFiltered, "planned"} {
				var rel *Relation
				if strategy == "planned" {
					rel, _, err = db.QueryContext(ctx, sql)
				} else {
					rel, _, err = db.QueryForced(ctx, sql, strategy)
				}
				if err != nil {
					t.Fatalf("%s (%s, %d workers): %v", sql, strategy, workers, err)
				}
				var lines []string
				for _, row := range rel.Rows {
					lines = append(lines, row[0].String()+"|"+row[1].String())
				}
				if got := strings.Join(lines, "\n"); got != want {
					t.Errorf("%s (%s, %d workers):\n%s\nwant:\n%s", sql, strategy, workers, got, want)
				}
			}
		}
	}
}

// FuzzHandStatements: arbitrary SQL into each hand operator's statement
// check — IndexFilter's (over a table with a live index), the S3-side and
// hybrid group-bys', Join's and BloomProbe's — yields a plan or a
// bad_request saying why, never a panic and never another kind of error.
func FuzzHandStatements(f *testing.F) {
	for _, sql := range []string{
		"SELECT * FROM f WHERE k < 300 AND k >= 2",
		"SELECT * FROM f WHERE g = 3",
		"SELECT g, SUM(v) AS s, COUNT(*) AS n FROM f WHERE k < 700 GROUP BY g",
		"SELECT g, SUM(*), COUNT(v) FROM f GROUP BY g ORDER BY g LIMIT 2",
		"SELECT SUM(b.v) AS s, COUNT(*) FROM f a JOIN f_col b ON a.k = b.k WHERE a.g = 3",
		"SELECT * FROM f a JOIN f b ON b.k = a.g WHERE a.k < 3 OR b.v > 1",
		"SELECT a.*, COUNT(*) FROM f a, f_col b WHERE a.k = b.k",
		"SELECT k, v FROM f WHERE v < 0",
	} {
		f.Add(sql)
	}
	db, err := Open(testBucket, WithBackend("s3sim", s3api.NewInProc(forcedStore(f))))
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		_, _, indexErr := db.NewExec().indexStatement(sql)
		_, s3Err := db.groupStatement(sql, "s3-side group-by", true)
		_, hybridErr := db.groupStatement(sql, "hybrid group-by", false)
		_, _, joinErr := db.joinStatement(JoinSpec{SQL: sql}, StrategyBloom)
		_, probeErr := db.probeStatement(sql)
		for i, err := range []error{indexErr, s3Err, hybridErr, joinErr, probeErr} {
			if err != nil && s3api.KindOf(err) != s3api.KindBadRequest {
				t.Errorf("check %d of %q: %v is no bad_request", i, sql, err)
			}
		}
	})
}

// TestForcedGroupByBillsOneRowUnitPerRow: a WHERE-less statement has no
// filter pass, so a forced baseline GROUP BY bills its loaded rows once, to
// the grouping, as the filtered plan bills its returned rows. With a second
// of row work per row and nothing else near a second, the runtime counts the
// units billed.
func TestForcedGroupByBillsOneRowUnitPerRow(t *testing.T) {
	db, _ := newTestDB(t)
	db.Cfg.RowWorkSecPerRow, db.Cfg.Workers = 1, 1
	for _, strategy := range []string{StrategyBaseline, StrategyFiltered} {
		_, e, err := db.QueryForced(context.Background(), groupSQL("events", "g"), strategy)
		if err != nil {
			t.Fatal(err)
		}
		if units := math.Floor(e.RuntimeSeconds()); units != 1000 {
			t.Errorf("forced %s group-by over 1000 rows billed %g server-row units", strategy, units)
		}
	}
}
