package engine

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"pushdowndb/internal/sqlparse"
	"pushdowndb/internal/store"
	"pushdowndb/internal/value"
)

// An ungrouped ORDER BY … LIMIT K tail ranks its scan's kept rows as they
// decode (rank) and projects only the K it answers; a grouped or joined
// tail ranks K of its rows (TopKLocal). Either answers as SortLocal and then
// LimitLocal would, errors included.

// TestTopKProjectsOnlyItsAnswer: a select item that fails on a row outside
// the answer fails on no path. 10 / (w - 1) divides by zero where w is 1,
// which rows 400 and 399 are not; every path projects only those two.
func TestTopKProjectsOnlyItsAnswer(t *testing.T) {
	st := store.New()
	loadPush(t, st, "t", []string{"id", "v", "w", "u", "z"}, nil, topKRows(), 4, false)
	db := openOver(t, pushBucket, st)
	const sql = "SELECT id, 10 / (w - 1) AS x FROM t ORDER BY id DESC LIMIT 2"
	planned, e, err := db.QueryContext(context.Background(), sql)
	if err != nil {
		t.Fatalf("planned: %v", err)
	}
	if ap := accessOf(e); ap.Pushed != PushedTopK || ap.Sample != "threshold 399 from the sample" {
		t.Errorf("planned tail %+v, want the threshold 399", ap)
	}
	want := render(planned, true)
	if wantRows := "id|x\n400|0\n399|2"; want != wantRows {
		t.Errorf("planned answer\n%s\nwant\n%s", want, wantRows)
	}
	for _, strategy := range []string{StrategyBaseline, StrategyFiltered} {
		if got := render(forcedRel(t, db, strategy, sql), true); got != want {
			t.Errorf("forced %s:\n%s\nwant\n%s", strategy, got, want)
		}
	}
	if got, _ := topKOf(t, db, sql, 20); render(got, true) != want {
		t.Errorf("SamplingTopK:\n%s\nwant\n%s", render(got, true), want)
	}
}

// rankRows is TestTopKTailMatchesSortLimit's table of n rows: w repeats nine
// integers, so ties straddle every K and every partition boundary, and is
// NULL in every eleventh row; s is text that reads as no number.
func rankRows(n int) [][]string {
	rows := make([][]string, n)
	for i := range rows {
		w := fmt.Sprint(i * 7 % 9)
		if i%11 == 3 {
			w = ""
		}
		rows[i] = []string{fmt.Sprint(i + 1), w, fmt.Sprintf("n%02d", i%13)}
	}
	return rows
}

// sortLimit is the materialized oracle of a single-table top-K: the table
// loaded whole in partition order, filtered, sorted by SortLocal, cut by
// LimitLocal and then projected. For a statement whose projection fails on
// no row it is SortLocal, Project and LimitLocal's answer.
func sortLimit(db *DB, sql string) (*Relation, error) {
	sel, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	rel, err := db.NewExec().LoadTable("load", 0, sel.Table)
	if err == nil {
		rel, err = Filter(rel, sel.Where)
	}
	if err == nil {
		rel, err = SortLocal(rel, orderByOverInput(sel))
	}
	if err != nil {
		return nil, err
	}
	return Project(LimitLocal(rel, int(sel.Limit)), sel.Items)
}

// TestTopKTailMatchesSortLimit: every path of an ungrouped top-K — planned
// (the threshold scan where the sample yields one, else the plain filtered
// scan), forced baseline, forced filtered and, over CSV with an indexable
// WHERE, forced indexscan — answers as the materialized oracle (sortLimit)
// does, byte for byte, or fails with its error: NULL keys first ascending
// and last descending, ties in partition-then-row order across partition
// boundaries, mixed directions, alias keys and * items, at K = 0, 1, the
// table's rows and more, over 1, 2 and 7 partitions of CSV and colformat.
// A key that fails reports the lowest failing row's error, at K = 0 too.
func TestTopKTailMatchesSortLimit(t *testing.T) {
	const n = 60
	header := []string{"id", "w", "s"}
	kinds := []value.Kind{value.KindInt, value.KindInt, value.KindString}
	statements := []string{
		"SELECT * FROM t ORDER BY w LIMIT %d",
		"SELECT * FROM t ORDER BY w DESC LIMIT %d",
		"SELECT id, w + 1 AS x FROM t WHERE id > 3 ORDER BY x DESC, id LIMIT %d",
		"SELECT s, id FROM t ORDER BY s DESC, w, id DESC LIMIT %d",
		"SELECT id * 2 AS dbl, * FROM t WHERE id <= 50 ORDER BY w DESC, dbl LIMIT %d",
		"SELECT w, s FROM t WHERE id >= 10 ORDER BY w LIMIT %d",
		"SELECT id FROM t ORDER BY CASE WHEN id > 17 THEN CAST(s AS INT) ELSE id END, id LIMIT %d",
	}
	pushed, failed := 0, 0
	for _, parts := range []int{1, 2, 7} {
		for _, columnar := range []bool{false, true} {
			st := store.New()
			loadPush(t, st, "t", header, kinds, rankRows(n), parts, columnar)
			if !columnar {
				buildIndex(t, st, pushBucket, "t", "id")
			}
			db := openOver(t, pushBucket, st)
			for _, q := range statements {
				for _, k := range []int{0, 1, n, n + 5} {
					sql := fmt.Sprintf(q, k)
					want, wantErr := sortLimit(db, sql)
					paths := []string{"", StrategyBaseline, StrategyFiltered}
					if !columnar && strings.Contains(sql, "WHERE id") {
						paths = append(paths, StrategyIndexScan)
					}
					for _, path := range paths {
						label := fmt.Sprintf("%d partitions, columnar=%v, path %q: %s", parts, columnar, path, sql)
						got, e, err := db.QueryForced(context.Background(), sql, path)
						if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
							t.Errorf("%s: error %v, want %v", label, err, wantErr)
							continue
						}
						if err != nil {
							failed++
							continue
						}
						if got, want := render(got, true), render(want, true); got != want {
							t.Errorf("%s:\n%s\nwant\n%s", label, got, want)
						}
						if ap := accessOf(e); path == "" && ap != nil && ap.Pushed == PushedTopK {
							pushed++
						}
					}
				}
			}
		}
	}
	if pushed == 0 || failed == 0 {
		t.Errorf("%d answers came through the threshold scan and %d paths failed a key: the battery should run both", pushed, failed)
	}
}

// TestTopKLocalIsSortThenLimit: TopKLocal at every K is SortLocal's rows cut
// to K, the rows themselves, and at K = 0 evaluates every key all the same.
func TestTopKLocalIsSortThenLimit(t *testing.T) {
	rel := cellsRel([]string{"id", "w", "s"}, rankRows(40))
	for _, order := range [][]sqlparse.OrderItem{
		{{Expr: &sqlparse.Column{Name: "w"}}},
		{{Expr: &sqlparse.Column{Name: "w"}, Desc: true}, {Expr: &sqlparse.Column{Name: "s"}}},
		{{Expr: &sqlparse.Column{Name: "s"}, Desc: true}, {Expr: &sqlparse.Column{Name: "id"}, Desc: true}},
	} {
		sorted, err := SortLocal(rel, order)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{-1, 0, 1, 7, 39, 40, 1000} {
			top, err := TopKLocal(rel, order, k)
			if err != nil {
				t.Fatal(err)
			}
			want := LimitLocal(sorted, k)
			if len(top.Rows) != len(want.Rows) {
				t.Fatalf("k=%d: %d rows, want %d", k, len(top.Rows), len(want.Rows))
			}
			for i := range top.Rows {
				if &top.Rows[i][0] != &want.Rows[i][0] {
					t.Errorf("k=%d: row %d is %v, want %v", k, i, top.Rows[i], want.Rows[i])
				}
			}
		}
	}
	bad := []sqlparse.OrderItem{{Expr: &sqlparse.Call{Name: "ABS", Args: []sqlparse.Expr{&sqlparse.Column{Name: "s"}}}}}
	if _, err := TopKLocal(rel, bad, 0); err == nil {
		t.Error("TopKLocal at K = 0 evaluated no key: ABS of text should fail")
	}
}
