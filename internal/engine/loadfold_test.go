package engine

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"pushdowndb/internal/csvx"
	"pushdowndb/internal/race"
	"pushdowndb/internal/s3api"
	"pushdowndb/internal/sqlparse"
	"pushdowndb/internal/store"
	"pushdowndb/internal/value"
)

// The folded load: a Load with Items groups the rows its Where keeps as
// each partition decodes, and answers as Operators.GroupBy over the loaded
// and filtered relation does: the same groups in the same order, typed
// alike, or the same error.

// foldCase is a grouping a differential table is folded by.
type foldCase struct {
	sql   string // SELECT items FROM t [GROUP BY keys], for its label and parse
	keys  []sqlparse.Expr
	items []sqlparse.SelectItem
}

// foldCases are, over tbl, plain aggregations of each column, groupings by
// each column of the aggregates of the last, and a grouping naming a column
// no header has.
func foldCases(t *testing.T, tbl diffTable) []foldCase {
	last := `"` + tbl.header[len(tbl.header)-1] + `"`
	sqls := []string{"SELECT SUM(nosuch) AS s FROM t", "SELECT COUNT(*) AS n FROM t"}
	for _, c := range tbl.header {
		q := `"` + c + `"`
		sqls = append(sqls,
			fmt.Sprintf("SELECT COUNT(*) AS n, COUNT(%[1]s) AS c, SUM(%[1]s) AS s, AVG(%[1]s) AS a, MIN(%[1]s) AS mn, MAX(%[1]s) AS mx FROM t", q),
			fmt.Sprintf("SELECT %[1]s, COUNT(*) AS n, MIN(%[2]s) AS mn, MAX(%[2]s) AS mx, SUM(CAST(%[2]s AS FLOAT)) AS s FROM t GROUP BY %[1]s", q, last))
	}
	out := make([]foldCase, len(sqls))
	for i, sql := range sqls {
		sel := selectOf(t, sql)
		out[i] = foldCase{sql: sql, keys: sel.GroupBy, items: sel.Items}
	}
	return out
}

// foldWant is what the fold must answer: the load, its Where's filter and
// then Operators{}.GroupBy.
func foldWant(e *Exec, table string, where sqlparse.Expr, keys []sqlparse.Expr, items []sqlparse.SelectItem) (*Relation, error) {
	loaded, err := e.LoadTable("load "+table, e.NextStage(), table)
	if err == nil {
		loaded, err = Operators{}.Filter(loaded, where)
	}
	if err != nil {
		return nil, err
	}
	return Operators{}.GroupBy(loaded, keys, items)
}

// foldGot is the folded load.
func foldGot(e *Exec, table string, where sqlparse.Expr, keys []sqlparse.Expr, items []sqlparse.SelectItem) (*Relation, error) {
	rels, err := e.LoadTables(e.NextStage(), Load{Table: table, Where: where, GroupBy: keys, Items: items})
	if err != nil {
		return nil, err
	}
	return rels[0], nil
}

// checkFold compares the folded load of table with foldWant's answer.
func checkFold(t *testing.T, db *DB, label, table string, where sqlparse.Expr, keys []sqlparse.Expr, items []sqlparse.SelectItem) error {
	t.Helper()
	ctx := context.Background()
	want, wantErr := foldWant(db.NewExecContext(ctx), table, where, keys, items)
	got, gotErr := foldGot(db.NewExecContext(ctx), table, where, keys, items)
	if fmt.Sprint(wantErr) != fmt.Sprint(gotErr) {
		t.Fatalf("%s: GroupBy's error %v, the fold's %v", label, wantErr, gotErr)
	}
	if wantErr == nil {
		identicalRel(t, label, want, got)
	}
	return wantErr
}

// TestLoadFoldMatchesGroupBy: over the differential tables — NULLs, NaNs,
// ragged rows, the name-rule headers — as CSV and as colformat, at 1, 2 and
// 7 partitions, with and without a Where and with and without keys, a
// folded load answers as LoadTable, Operators.Filter and Operators.GroupBy
// do: the same groups in the same order, typed alike, or the same error.
func TestLoadFoldMatchesGroupBy(t *testing.T) {
	ctx := context.Background()
	for _, format := range []string{"csv", "colformat"} {
		for _, parts := range []int{1, 2, 7} {
			st := store.New()
			for _, tbl := range diffTables {
				var err error
				if format == "csv" {
					err = PartitionTable(ctx, st, diffBucket, tbl.name, tbl.header, tbl.rows, parts)
				} else {
					schema, rows := columnarOf(tbl)
					err = PartitionTableColumnar(st, diffBucket, tbl.name, schema, rows, parts, 2, true)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			db, err := Open(diffBucket, WithBackend("inproc", s3api.NewInProc(st)))
			if err != nil {
				t.Fatal(err)
			}
			compared, failed := 0, 0
			for _, tbl := range diffTables {
				wheres := []sqlparse.Expr{nil}
				for _, wp := range wherePreds(tbl) {
					pred, err := sqlparse.ParseExpr(wp.sql)
					if err != nil {
						t.Fatal(err)
					}
					wheres = append(wheres, pred)
				}
				for _, fc := range foldCases(t, tbl) {
					for _, where := range wheres {
						label := fmt.Sprintf("%s parts=%d %s: %s WHERE %v", format, parts, tbl.name, fc.sql, where)
						if checkFold(t, db, label, tbl.name, where, fc.keys, fc.items) != nil {
							failed++
						} else {
							compared++
						}
					}
				}
			}
			if compared == 0 || failed == 0 {
				t.Errorf("%s parts=%d: %d folds compared and %d failures, want some of both", format, parts, compared, failed)
			}
		}
	}
}

// TestLoadFoldEdges: the partitions a folded load must answer as the
// loaded relation's group-by does — a zero-byte first partition, a table
// whose only object has no header at all, partitions of different widths,
// a column no header has, a failing row in partition 1 behind 20,000 good
// ones against one first in partition 2, and a predicate that fails in a
// later partition than the aggregate does (a filter over the whole
// relation runs before any group-by).
func TestLoadFoldEdges(t *testing.T) {
	many := make([][]string, 20_000)
	for i := range many {
		many[i] = []string{fmt.Sprint(i), "g" + fmt.Sprint(i%3)}
	}
	csvOf := func(header []string, rows ...[]string) []byte { return csvx.Encode(header, rows) }
	xy := []string{"x", "y"}
	tables := []struct {
		name  string
		parts [][]byte
	}{
		{"zero_first", [][]byte{nil, csvOf(xy, []string{"1", "a"}, []string{"2", "b"}), csvOf(xy, []string{"3", "a"})}},
		{"no_header", [][]byte{nil}},
		{"widths", [][]byte{csvOf(xy, []string{"1", "a"}), csvOf([]string{"x", "y", "z"}, []string{"2", "b", "c"})}},
		{"late_fail", [][]byte{csvOf(xy, []string{"1", "a"}), csvOf(xy, append(many, []string{"bad1", "c"}, []string{"bad2", "d"})...), csvOf(xy, []string{"worse", "e"}, []string{"3", "f"})}},
		{"where_later", [][]byte{csvOf(xy, []string{"1", "a"}), csvOf(xy, []string{"bad", "b"}), csvOf(xy, []string{"2", "worse"})}},
	}
	st := store.New()
	for _, tbl := range tables {
		for i, data := range tbl.parts {
			st.Put(diffBucket, store.PartitionKey(tbl.name, i), data)
		}
	}
	db, err := Open(diffBucket, WithBackend("inproc", s3api.NewInProc(st)))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		table, where, sql string
		fails             bool
	}{
		{"zero_first", "", "SELECT y, COUNT(*) AS n, SUM(x) AS s FROM t GROUP BY y", false},
		{"zero_first", "x > 1", "SELECT COUNT(*) AS n, MIN(y) AS mn FROM t", false},
		{"no_header", "", "SELECT COUNT(*) AS n, SUM(x) AS s, MAX(y) AS mx FROM t", false},
		{"no_header", "x > 1", "SELECT y, COUNT(*) AS n FROM t GROUP BY y", false},
		{"widths", "", "SELECT COUNT(*) AS n FROM t", true},
		{"widths", "x > 0", "SELECT y, SUM(x) AS s FROM t GROUP BY y", true},
		{"zero_first", "", "SELECT y, SUM(nosuch) AS s FROM t GROUP BY y", true},
		{"late_fail", "", "SELECT y, SUM(CAST(x AS INT)) AS s FROM t GROUP BY y", true},
		{"late_fail", "y <> 'zzz'", "SELECT SUM(CAST(x AS INT)) AS s FROM t", true},
		{"where_later", "CASE WHEN y = 'worse' THEN CAST(y AS INT) ELSE 1 END > 0", "SELECT SUM(CAST(x AS INT)) AS s FROM t", true},
	}
	for _, c := range cases {
		sel := selectOf(t, c.sql)
		var where sqlparse.Expr
		if c.where != "" {
			where, err = sqlparse.ParseExpr(c.where)
			if err != nil {
				t.Fatal(err)
			}
		}
		label := fmt.Sprintf("%s: %s WHERE %s", c.table, c.sql, c.where)
		for range 20 { // the partitions' decodes race; the answer must not
			if err := checkFold(t, db, label, c.table, where, sel.GroupBy, sel.Items); (err != nil) != c.fails {
				t.Fatalf("%s: error %v, want one: %v", label, err, c.fails)
			}
		}
	}
	// The cases that fail, fail where a filter and then a group-by over the
	// whole relation would: partition 1's failing row, and the predicate's
	// failure ahead of the aggregate's.
	for _, c := range []struct{ table, where, sql, want string }{
		{"late_fail", "", "SELECT y, SUM(CAST(x AS INT)) AS s FROM t GROUP BY y", `"bad1"`},
		{"where_later", "CASE WHEN y = 'worse' THEN CAST(y AS INT) ELSE 1 END > 0", "SELECT SUM(CAST(x AS INT)) AS s FROM t", `"worse"`},
		{"widths", "x > 0", "SELECT y, SUM(x) AS s FROM t GROUP BY y", "differ in columns"},
	} {
		sel := selectOf(t, c.sql)
		var where sqlparse.Expr
		if c.where != "" {
			where, _ = sqlparse.ParseExpr(c.where)
		}
		_, err := foldGot(db.NewExecContext(context.Background()), c.table, where, sel.GroupBy, sel.Items)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: %s WHERE %s fails with %v, want %s", c.table, c.sql, c.where, err, c.want)
		}
	}
}

// q1Shaped is a 60,000-row table of Q1's seven columns, over four groups,
// as rows of CSV cells.
func q1Shaped(rows int) ([]string, [][]string) {
	cells := make([][]string, rows)
	for i := range cells {
		cells[i] = []string{"AR"[i%2 : i%2+1], "OF"[i/2%2 : i/2%2+1], fmt.Sprint(1 + i%50), fmt.Sprintf("%d.%02d", 900+i%9000, i%100),
			fmt.Sprintf("0.%02d", i%11), fmt.Sprintf("0.%02d", i%9), fmt.Sprintf("199%d-0%d-1%d", i%8, 1+i%9, i%10)}
	}
	return []string{"l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount", "l_tax", "l_shipdate"}, cells
}

const q1Fold = `SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty, SUM(l_extendedprice) AS sum_base_price,
	SUM(l_extendedprice * (1 - l_discount)) AS sum_disc_price, SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)) AS sum_charge,
	AVG(l_quantity) AS avg_qty, AVG(l_extendedprice) AS avg_price, AVG(l_discount) AS avg_disc, COUNT(*) AS count_order
	FROM lineitem WHERE l_shipdate <= '1998-09-02' GROUP BY l_returnflag, l_linestatus`

// TestLoadFoldAllocatesPerGroup: a folded Q1-shaped load of 60,000 rows
// into 4 groups allocates what its partitions' blocks and groups take, not
// what its rows do: well under 200 KB, where typing the kept rows and
// grouping them after costs megabytes.
func TestLoadFoldAllocatesPerGroup(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts differ under the race detector")
	}
	header, cells := q1Shaped(60_000)
	st := store.New()
	if err := PartitionTable(context.Background(), st, diffBucket, "lineitem", header, cells, 4); err != nil {
		t.Fatal(err)
	}
	db, err := Open(diffBucket, WithBackend("inproc", s3api.NewInProc(st)))
	if err != nil {
		t.Fatal(err)
	}
	sel := selectOf(t, q1Fold)
	load := func() *Relation {
		rels, err := db.NewExecContext(context.Background()).LoadTables(0, Load{Table: "lineitem", Where: sel.Where, GroupBy: sel.GroupBy, Items: sel.Items})
		if err != nil {
			t.Fatal(err)
		}
		return rels[0]
	}
	if n := len(load().Rows); n != 4 {
		t.Fatalf("the fold made %d groups, want 4", n)
	}
	const runs, limit = 5, 200 << 10
	if got := allocatedBytes(func() {
		for range runs {
			load()
		}
	}) / runs; got > limit {
		t.Errorf("a folded 60,000-row load into 4 groups allocates %d bytes, want at most %d", got, limit)
	}
}

// TestLoadFoldOwnsItsText: a folded result keeps no partition's object
// reachable — none of its text, group keys and MIN/MAX alike, lies in the
// bytes of an object the load fetched, CSV or colformat.
func TestLoadFoldOwnsItsText(t *testing.T) {
	header, cells := q1Shaped(2_000)
	for _, format := range []string{"csv", "colformat"} {
		st := store.New()
		var err error
		if format == "csv" {
			err = PartitionTable(context.Background(), st, diffBucket, "lineitem", header, cells, 3)
		} else {
			schema, rows := columnarOf(diffTable{header: header, rows: cells})
			err = PartitionTableColumnar(st, diffBucket, "lineitem", schema, rows, 3, 256, false)
		}
		if err != nil {
			t.Fatal(err)
		}
		db, err := Open(diffBucket, WithBackend("inproc", s3api.NewInProc(st)))
		if err != nil {
			t.Fatal(err)
		}
		sel := selectOf(t, "SELECT l_returnflag, l_linestatus, MIN(l_linestatus) AS mn, MAX(l_returnflag) AS mx, COUNT(*) AS n FROM lineitem GROUP BY l_returnflag, l_linestatus")
		rels, err := db.NewExecContext(context.Background()).LoadTables(0, Load{Table: "lineitem", GroupBy: sel.GroupBy, Items: sel.Items})
		if err != nil {
			t.Fatal(err)
		}
		var objects [][]byte
		for i := range 3 {
			data, err := st.Get(diffBucket, store.PartitionKey("lineitem", i))
			if err != nil {
				t.Fatal(err)
			}
			objects = append(objects, data)
		}
		strs := 0
		for _, row := range rels[0].Rows {
			for _, v := range row {
				if v.Kind() != value.KindString {
					continue
				}
				strs++
				p := uintptr(unsafe.Pointer(unsafe.StringData(v.AsString())))
				for i, obj := range objects {
					if lo := uintptr(unsafe.Pointer(unsafe.SliceData(obj))); lo <= p && p < lo+uintptr(len(obj)) {
						t.Errorf("%s: %q in row %v lies in partition %d's object", format, v.AsString(), row, i)
					}
				}
			}
		}
		if strs != 4*len(rels[0].Rows) {
			t.Errorf("%s: %d text cells in %d groups, want 4 a group", format, strs, len(rels[0].Rows))
		}
	}
}
