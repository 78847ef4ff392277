package engine

import (
	"context"
	"errors"
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

// The probing load: a Load with Build joins the rows its Where keeps to
// Build's hash table as each partition decodes, and answers as
// Operators.HashJoin(Build, <the load without Build>, BuildKey, ProbeKey)
// does: the same columns, rows in the same order, typed alike, or the same
// error. Its pairs are also held to the nested-loop oracle over
// value.Equal (nestedLoopJoin), which shares no hashing with either.

// probeBuild is a build side keyed by bk whose keys are every cell of the
// differential tables twice over (duplicate build keys), NULL keys, and
// the spellings a key may meet its match in: padded and float texts of
// numbers, date texts and DATEs, a day past year 9999 and its text.
func probeBuild() *Relation {
	build := &Relation{Cols: []string{"bk", "btag"}}
	add := func(k value.Value) {
		build.Rows = append(build.Rows, Row{k, value.Str(fmt.Sprint("b", len(build.Rows)))})
	}
	for _, tbl := range diffTables {
		for _, r := range tbl.rows {
			for j := range r {
				add(value.CSVCell(r, j))
			}
		}
	}
	for _, k := range []value.Value{value.Null(), value.Str(" 3"), value.Str("3.0"), value.Str("7 "), value.Str("1995-02-02"),
		value.Str("10183-09-21"), value.Date(3000000), value.Date(8766), value.Float(55), value.Int(100), value.Null()} {
		add(k)
	}
	n := len(build.Rows)
	build.Rows = append(build.Rows, build.Rows[:n:n]...) // every key twice
	return build
}

// probeWant is what a probing load must answer: the load without Build,
// then Operators{}.HashJoin — and, when that answers, the pairs the
// nested-loop oracle finds.
func probeWant(e *Exec, l Load) (want, oracle *Relation, err error) {
	build := l.Build
	l.Build = nil
	rels, err := e.LoadTables(e.NextStage(), l)
	if err != nil {
		return nil, nil, err
	}
	if want, err = (Operators{}).HashJoin(build, rels[0], l.BuildKey, l.ProbeKey); err != nil {
		return nil, nil, err
	}
	return want, nestedLoopJoin(build, rels[0], l.BuildKey, l.ProbeKey), nil
}

// checkProbe compares the probing load l with probeWant's answer, and
// returns the error both answered (nil: none) and the rows joined.
func checkProbe(t *testing.T, db *DB, label string, l Load) (int, error) {
	t.Helper()
	ctx := context.Background()
	want, oracle, wantErr := probeWant(db.NewExecContext(ctx), l)
	e := db.NewExecContext(ctx)
	rels, gotErr := e.LoadTables(e.NextStage(), l)
	if fmt.Sprint(wantErr) != fmt.Sprint(gotErr) {
		t.Fatalf("%s: HashJoin's error %v, the probing load's %v", label, wantErr, gotErr)
	}
	if wantErr != nil {
		return 0, wantErr
	}
	identicalRel(t, label, want, rels[0])
	identicalRel(t, label+" (nested loop)", oracle, rels[0])
	return len(want.Rows), nil
}

// TestLoadProbeMatchesHashJoin: over the differential tables — NULLs,
// NaNs, ragged rows, the name-rule headers — as CSV and as colformat, at 1,
// 2 and 7 partitions, every column as the probe key, with and without a
// Where and a pruned column list, a probing load answers as LoadTables and
// then Operators.HashJoin do, and its pairs are the nested loop's: over
// duplicate and NULL build keys, padded, float and date spellings, a far
// date, an empty build side, and a key neither side has.
func TestLoadProbeMatchesHashJoin(t *testing.T) {
	ctx := context.Background()
	build, empty := probeBuild(), &Relation{Cols: []string{"bk", "btag"}}
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
			joined, failed := 0, 0
			for _, tbl := range diffTables {
				wheres := []sqlparse.Expr{nil}
				for _, wp := range wherePreds(tbl) {
					pred, err := sqlparse.ParseExpr(wp.sql)
					if err != nil {
						t.Fatal(err)
					}
					wheres = append(wheres, pred)
				}
				for _, key := range append(tbl.header, "nosuch") {
					for _, cols := range [][]string{nil, {tbl.header[len(tbl.header)-1], key}} {
						if key == "nosuch" && cols != nil {
							continue // a load error, not the join's
						}
						for _, where := range wheres {
							for _, b := range []*Relation{build, empty} {
								l := Load{Table: tbl.name, Cols: cols, Where: where, Build: b, BuildKey: "bk", ProbeKey: key}
								label := fmt.Sprintf("%s parts=%d %s cols=%v WHERE %v: %d build rows on bk = %s",
									format, parts, tbl.name, cols, where, len(b.Rows), key)
								n, err := checkProbe(t, db, label, l)
								if err != nil {
									failed++
								}
								joined += n
							}
						}
					}
				}
			}
			if joined == 0 || failed == 0 {
				t.Errorf("%s parts=%d: %d rows joined and %d failures, want some of both", format, parts, joined, failed)
			}
		}
	}
}

// TestLoadProbeEdges: the partitions and errors a probing load must
// answer as the loaded relation's HashJoin does — a zero-byte first
// partition, a table whose only object has no header at all, partitions of
// different widths, an unknown probe key, an unknown build key behind a
// load that fails (the load's error wins, and the Where's), and a failing
// row in partition 1 behind 20,000 good ones against one first in
// partition 2.
func TestLoadProbeEdges(t *testing.T) {
	many := make([][]string, 20_000)
	for i := range many {
		many[i] = []string{fmt.Sprint(i % 5), "g" + fmt.Sprint(i%3)}
	}
	csvOf := func(header []string, rows ...[]string) []byte { return csvx.Encode(header, rows) }
	xy := []string{"x", "y"}
	st := store.New()
	for name, parts := range map[string][][]byte{
		"zero_first": {nil, csvOf(xy, []string{"1", "a"}, []string{"2", "b"}), csvOf(xy, []string{"3", "a"}, []string{"", "c"})},
		"no_header":  {nil},
		"widths":     {csvOf(xy, []string{"1", "a"}), csvOf([]string{"x", "y", "z"}, []string{"2", "b", "c"})},
		"late_fail":  {csvOf(xy, []string{"1", "a"}), csvOf(xy, append(many, []string{"bad1", "c"}, []string{"bad2", "d"})...), csvOf(xy, []string{"worse", "e"}, []string{"3", "f"})},
	} {
		for i, data := range parts {
			st.Put(diffBucket, store.PartitionKey(name, i), data)
		}
	}
	db, err := Open(diffBucket, WithBackend("inproc", s3api.NewInProc(st)))
	if err != nil {
		t.Fatal(err)
	}
	build := cellsRel([]string{"k", "tag"}, [][]string{{"1", "one"}, {"3", "three"}, {"", "null"}, {"1", "uno"}, {" 2", "two"}})
	empty := &Relation{Cols: []string{"k", "tag"}}
	parse := func(s string) sqlparse.Expr {
		if s == "" {
			return nil
		}
		e, err := sqlparse.ParseExpr(s)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	for _, c := range []struct {
		table, where, buildKey, probeKey string
		cols                             []string
		empty                            bool
		want                             string // the error, or "" for none
	}{
		{"zero_first", "", "k", "x", nil, false, ""},
		{"zero_first", "x > 1", "k", "x", []string{"x"}, false, ""},
		{"zero_first", "", "k", "x", nil, true, ""},
		{"no_header", "", "k", "x", nil, false, `join key "x" not in right relation []`},
		{"no_header", "", "nosuch", "x", nil, false, `join key "nosuch" not in left relation`},
		{"widths", "", "k", "x", nil, false, "differ in columns"},
		{"widths", "x > 0", "nosuch", "x", nil, false, "differ in columns"},
		{"zero_first", "", "k", "nosuch", nil, false, `join key "nosuch" not in right relation [x y]`},
		{"zero_first", "", "nosuch", "nosuch", nil, false, `join key "nosuch" not in left relation`},
		{"widths", "", "nosuch", "x", []string{"z"}, false, `no column "z"`},
		{"late_fail", "CAST(x AS INT) >= 0", "nosuch", "x", nil, false, `"bad1"`},
		{"late_fail", "CAST(x AS INT) >= 0", "k", "x", nil, false, `"bad1"`},
		{"late_fail", "y <> 'zzz'", "k", "x", nil, false, ""},
	} {
		b := build
		if c.empty {
			b = empty
		}
		l := Load{Table: c.table, Cols: c.cols, Where: parse(c.where), Build: b, BuildKey: c.buildKey, ProbeKey: c.probeKey}
		label := fmt.Sprintf("%s cols=%v WHERE %s: %d build rows on %s = %s", c.table, c.cols, c.where, len(b.Rows), c.buildKey, c.probeKey)
		for range 20 { // the partitions' decodes race; the answer must not
			_, err := checkProbe(t, db, label, l)
			if (err == nil) != (c.want == "") || err != nil && !strings.Contains(err.Error(), c.want) {
				t.Fatalf("%s: error %v, want %q", label, err, c.want)
			}
		}
	}
}

// tailCase is what a probe's joined rows meet: a residual (nil: none), then
// a fold (no items: none).
type tailCase struct {
	residual sqlparse.Expr
	fold     foldCase
}

// joinTails are what a probe's joined rows meet, over a probe side of
// tbl's columns keyed by key joining probeBuild's: a residual alone, one
// failing on its first row (a CAST of a tag) and one naming a column no
// header has; a fold alone; and a residual and then a fold — a grouping by
// the probe key, a sum failing on its first row, and one behind the failing
// residual, whose error must win.
func joinTails(t *testing.T, key string) []tailCase {
	q := `"` + key + `"`
	cases := [][2]string{
		{"btag > 'b3'", ""},
		{"CAST(btag AS INT) > 0", ""},
		{"nosuch = 1", ""},
		{"", "SELECT COUNT(*) AS n, MIN(btag) AS mn FROM t"},
		{q + " IS NOT NULL AND btag <> 'b0'", "SELECT " + q + ", COUNT(*) AS n, MAX(btag) AS mx FROM t GROUP BY " + q},
		{"btag <> 'b1'", "SELECT SUM(CAST(btag AS INT)) AS s FROM t"},
		{"CAST(btag AS INT) > 0", "SELECT SUM(CAST(btag AS INT)) AS s FROM t"},
	}
	out := make([]tailCase, len(cases))
	for i, c := range cases {
		if c[0] != "" {
			out[i].residual = mustExpr(t, c[0])
		}
		if c[1] != "" {
			sel := selectOf(t, c[1])
			out[i].fold = foldCase{sql: c[1], keys: sel.GroupBy, items: sel.Items}
		}
	}
	return out
}

// mustExpr parses sql as an expression.
func mustExpr(t *testing.T, sql string) sqlparse.Expr {
	t.Helper()
	x, err := sqlparse.ParseExpr(sql)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// joinedTail is what a join's tail answers over joined, the relation of its
// joined rows, or the error before it (err): Operators.Filter by the
// residual, then Operators.GroupBy by the fold when it has items.
func joinedTail(joined *Relation, err error, residual sqlparse.Expr, fold foldCase) (*Relation, error) {
	if err == nil {
		joined, err = Operators{}.Filter(joined, residual)
	}
	if err == nil && fold.items != nil {
		joined, err = Operators{}.GroupBy(joined, fold.keys, fold.items)
	}
	return joined, err
}

// TestLoadProbeFoldsItsJoinedRows: over the differential tables as CSV and
// as colformat, at 1 and 7 partitions, every column as the probe key, with
// and without a Where, a probing load with a Residual, a grouping (Items)
// or both answers as LoadTables, Operators.HashJoin, Operators.Filter by the
// residual and Operators.GroupBy do: the same rows or groups in the same
// order, typed alike, or the same error — the Where's, then the keys', then
// the residual's, then the grouping's.
func TestLoadProbeFoldsItsJoinedRows(t *testing.T) {
	ctx := context.Background()
	build, empty := probeBuild(), &Relation{Cols: []string{"bk", "btag"}}
	for _, format := range []string{"csv", "colformat"} {
		for _, parts := range []int{1, 7} {
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
				for _, key := range append(tbl.header, "nosuch") {
					for _, where := range []sqlparse.Expr{nil, mustExpr(t, `"`+tbl.header[len(tbl.header)-1]+`" IS NOT NULL`)} {
						for _, tail := range joinTails(t, key) {
							for _, b := range []*Relation{build, empty} {
								l := Load{Table: tbl.name, Where: where, Build: b, BuildKey: "bk", ProbeKey: key,
									Residual: tail.residual, GroupBy: tail.fold.keys, Items: tail.fold.items}
								label := fmt.Sprintf("%s parts=%d %s WHERE %v: %d build rows on bk = %s, residual %v, %s",
									format, parts, tbl.name, where, len(b.Rows), key, tail.residual, tail.fold.sql)
								plain := Load{Table: tbl.name, Where: where}
								var want *Relation
								loaded, wantErr := db.NewExecContext(ctx).LoadTables(0, plain)
								if wantErr == nil {
									want, wantErr = Operators{}.HashJoin(b, loaded[0], "bk", key)
									want, wantErr = joinedTail(want, wantErr, tail.residual, tail.fold)
								}
								got, gotErr := db.NewExecContext(ctx).LoadTables(0, l)
								if fmt.Sprint(wantErr) != fmt.Sprint(gotErr) {
									t.Fatalf("%s: HashJoin, Filter and GroupBy's error %v, the probing load's %v", label, wantErr, gotErr)
								}
								if wantErr != nil {
									failed++
									continue
								}
								identicalRel(t, label, want, got[0])
								compared++
							}
						}
					}
				}
			}
			if compared == 0 || failed == 0 {
				t.Errorf("%s parts=%d: %d answers compared and %d failures, want some of both", format, parts, compared, failed)
			}
		}
	}
}

// TestBaselineJoinReportsTheBuildSidesError: when the build side's load
// fails, the probe side's, which fetched its partitions beside it, decodes
// nothing and the join answers the build side's error.
func TestBaselineJoinReportsTheBuildSidesError(t *testing.T) {
	st := store.New()
	st.Put(diffBucket, store.PartitionKey("l", 0), csvx.Encode([]string{"k"}, [][]string{{"1"}}))
	st.Put(diffBucket, store.PartitionKey("r", 0), csvx.Encode([]string{"k2"}, [][]string{{"1"}}))
	failing := s3api.NewFault(s3api.NewInProc(st))
	failing.OnOps("get")
	failing.FailWith(errors.New("injected build failure"))
	db, err := Open(diffBucket, WithBackend("inproc", s3api.NewInProc(st)), WithBackend("left", failing), WithTableBackend("l", "left"))
	if err != nil {
		t.Fatal(err)
	}
	_, err = db.NewExec().Join(JoinSpec{SQL: "SELECT * FROM l JOIN r ON l.k = r.k2"}, StrategyBaseline)
	if err == nil || !strings.Contains(err.Error(), "injected build failure") {
		t.Errorf("baseline join: %v, want the build side's failure", err)
	}
}

// lineitemShaped is a rows-row table of Q17's three lineitem columns, over
// 2,000 part keys.
func lineitemShaped(rows int) ([]string, [][]string) {
	cells := make([][]string, rows)
	for i := range cells {
		cells[i] = []string{fmt.Sprint(1 + i*7%2000), fmt.Sprint(1 + i%50), fmt.Sprintf("%d.%02d", 900+i%9000, i%100)}
	}
	return []string{"l_partkey", "l_quantity", "l_extendedprice"}, cells
}

// TestLoadProbeAllocatesPerMatch: a 60,000-row lineitem-shaped load
// probing a build side of 2 part keys allocates what its matches take, not
// what its rows do: well under 200 KB, where typing the rows and joining
// them after costs megabytes.
func TestLoadProbeAllocatesPerMatch(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts differ under the race detector")
	}
	header, cells := lineitemShaped(60_000)
	st := store.New()
	if err := PartitionTable(context.Background(), st, diffBucket, "lineitem", header, cells, 4); err != nil {
		t.Fatal(err)
	}
	db, err := Open(diffBucket, WithBackend("inproc", s3api.NewInProc(st)))
	if err != nil {
		t.Fatal(err)
	}
	build := cellsRel([]string{"p_partkey"}, [][]string{{"8"}, {"1500"}})
	load := func() *Relation {
		rels, err := db.NewExecContext(context.Background()).LoadTables(0,
			Load{Table: "lineitem", Build: build, BuildKey: "p_partkey", ProbeKey: "l_partkey"})
		if err != nil {
			t.Fatal(err)
		}
		return rels[0]
	}
	if n := len(load().Rows); n != 60 {
		t.Fatalf("the probe joined %d rows, want 60", n)
	}
	const runs, limit = 5, 200 << 10
	if got := allocatedBytes(func() {
		for range runs {
			load()
		}
	}) / runs; got > limit {
		t.Errorf("a 60,000-row load probing 2 keys allocates %d bytes, want at most %d", got, limit)
	}
}

// TestLoadProbeOwnsItsText: no joined row's text, the probe side's or the
// build side's, lies in the bytes of an object either load fetched, CSV or
// colformat.
func TestLoadProbeOwnsItsText(t *testing.T) {
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
		e := db.NewExecContext(context.Background())
		where, _ := sqlparse.ParseExpr("l_linestatus = 'O'")
		build, err := e.LoadTables(0, Load{Table: "lineitem", Cols: []string{"l_returnflag", "l_linestatus"}, Where: where})
		if err != nil {
			t.Fatal(err)
		}
		rels, err := e.LoadTables(0, Load{Table: "lineitem", Cols: []string{"l_returnflag", "l_shipdate", "l_linestatus"},
			Build: &Relation{Cols: build[0].Cols, Rows: build[0].Rows[:3]}, BuildKey: "l_returnflag", ProbeKey: "l_returnflag"})
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
						t.Fatalf("%s: %q in row %v lies in partition %d's object", format, v.AsString(), row, i)
					}
				}
			}
		}
		if len(rels[0].Rows) == 0 || strs != 4*len(rels[0].Rows) {
			t.Errorf("%s: %d text cells in %d joined rows, want 4 a row", format, strs, len(rels[0].Rows))
		}
	}
}
