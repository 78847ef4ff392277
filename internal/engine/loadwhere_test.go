package engine

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"pushdowndb/internal/colformat"
	"pushdowndb/internal/csvx"
	"pushdowndb/internal/race"
	"pushdowndb/internal/s3api"
	"pushdowndb/internal/sqlparse"
	"pushdowndb/internal/store"
	"pushdowndb/internal/value"
)

// The filtered load: a Load's Where keeps, as each partition decodes, the
// rows Filter keeps over the loaded relation, in their order, and
// fails as that filter fails.

// columnarOf is tbl as colformat rows: each column of the one kind its
// cells type to (INT and FLOAT cells make a FLOAT column; any other mix a
// STRING one), a short row padded with NULLs and a long one cut at the
// header.
func columnarOf(tbl diffTable) (colformat.Schema, [][]value.Value) {
	schema := make(colformat.Schema, len(tbl.header))
	rows := make([][]value.Value, len(tbl.rows))
	for i, r := range tbl.rows {
		rows[i] = make([]value.Value, len(tbl.header))
		for j := range rows[i] {
			rows[i][j] = value.CSVCell(r, j)
		}
	}
	for j, name := range tbl.header {
		kind := value.KindNull
		for _, row := range rows {
			switch k := row[j].Kind(); {
			case k == value.KindNull || k == kind:
			case kind == value.KindNull:
				kind = k
			case (k == value.KindInt || k == value.KindFloat) && (kind == value.KindInt || kind == value.KindFloat):
				kind = value.KindFloat
			default:
				kind = value.KindString
			}
		}
		if kind == value.KindNull {
			kind = value.KindString
		}
		schema[j] = colformat.ColumnDef{Name: name, Kind: kind}
	}
	return schema, rows
}

// wherePred is a predicate the differential filters a table by, and the
// column it reads ("" for one no header has).
type wherePred struct{ col, sql string }

// wherePreds are, per column of tbl, a predicate every row can evaluate, a
// comparison with text and a CAST that fails on a row whose cell is not a
// number — and one naming a column no header has.
func wherePreds(tbl diffTable) []wherePred {
	preds := []wherePred{{"", "nosuch = 1"}}
	for _, c := range tbl.header {
		q := `"` + c + `"`
		preds = append(preds, wherePred{c, q + " IS NOT NULL"}, wherePred{c, q + " > '3'"}, wherePred{c, "CAST(" + q + " AS INT) > 2"})
	}
	return preds
}

// TestLoadWhereMatchesFilter: over the differential tables — NULLs, NaNs,
// ragged rows, the name-rule headers — as CSV and as colformat, at 1, 2 and
// 7 partitions, with every column loaded and with a pruned list, a load's
// Where answers as LoadTable and then Filter do: the same rows in
// the same order, typed alike, or the same error.
func TestLoadWhereMatchesFilter(t *testing.T) {
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
				for _, wp := range wherePreds(tbl) {
					pred, err := sqlparse.ParseExpr(wp.sql)
					if err != nil {
						t.Fatal(err)
					}
					pruned := []string{tbl.header[len(tbl.header)-1]}
					if wp.col != "" {
						pruned = append(pruned, wp.col)
					}
					for _, cols := range [][]string{nil, pruned} {
						label := fmt.Sprintf("%s parts=%d %s cols=%v WHERE %s", format, parts, tbl.name, cols, wp.sql)
						e := db.NewExecContext(ctx)
						loaded, err := e.LoadTable("load "+tbl.name, e.NextStage(), tbl.name, cols...)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						want, wantErr := Filter(loaded, pred)
						rels, gotErr := e.LoadTables(e.NextStage(), Load{Table: tbl.name, Cols: cols, Where: pred})
						if fmt.Sprint(wantErr) != fmt.Sprint(gotErr) {
							t.Fatalf("%s: Filter's error %v, the load's %v", label, wantErr, gotErr)
						}
						if wantErr != nil {
							failed++
							continue
						}
						identicalRel(t, label, want, rels[0])
						compared++
					}
				}
			}
			if compared == 0 || failed == 0 {
				t.Errorf("%s parts=%d: %d loads compared and %d failures, want some of both", format, parts, compared, failed)
			}
		}
	}
}

// TestLoadWhereReportsTheFirstFailingRow: a predicate that fails in
// partitions 1 and 2 fails the load with partition 1's first failing row,
// as Filter over the loaded relation does — however the partitions'
// decodes race, and though partition 2's failing row comes first in it
// and partition 1's only after 20,000 rows.
func TestLoadWhereReportsTheFirstFailingRow(t *testing.T) {
	ctx := context.Background()
	st := store.New()
	header := []string{"x", "y"}
	var long [][]string
	for i := range 20_000 {
		long = append(long, []string{fmt.Sprint(i), "a"})
	}
	for i, rows := range [][][]string{
		{{"1", "a"}, {"2", "b"}},
		append(long, []string{"bad1", "c"}, []string{"bad2", "d"}),
		{{"worse", "e"}, {"3", "f"}},
	} {
		st.Put(diffBucket, store.PartitionKey("t", i), csvx.Encode(header, rows))
	}
	db, err := Open(diffBucket, WithBackend("inproc", s3api.NewInProc(st)))
	if err != nil {
		t.Fatal(err)
	}
	pred, err := sqlparse.ParseExpr("CAST(x AS INT) >= 0")
	if err != nil {
		t.Fatal(err)
	}
	e := db.NewExecContext(ctx)
	loaded, err := e.LoadTable("load t", 0, "t")
	if err != nil {
		t.Fatal(err)
	}
	_, want := Filter(loaded, pred)
	if want == nil || !strings.Contains(want.Error(), `"bad1"`) {
		t.Fatalf("Filter's error %v, want the CAST of bad1's", want)
	}
	for range 20 {
		_, err := db.NewExecContext(ctx).LoadTables(0, Load{Table: "t", Where: pred})
		if fmt.Sprint(err) != want.Error() {
			t.Fatalf("the load's error %v, want %v", err, want)
		}
	}
}

// TestLoadWhereAllocatesWhatItKeeps: a 60,000-row load that keeps 2 % of
// its rows allocates at most half again its kept cells, the first block and
// a []Row slot per kept row — where typing every row and filtering after
// cost the whole table's cells, and blocks of an eighth of them 756 KB.
func TestLoadWhereAllocatesWhatItKeeps(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts differ under the race detector")
	}
	const rows, w = 60_000, 3
	cells := make([][]string, rows)
	for i := range cells {
		cells[i] = []string{fmt.Sprint(i), fmt.Sprintf("%d.25", i%97), "1996-03-13"}
	}
	st := store.New()
	st.Put(diffBucket, store.PartitionKey("t", 0), csvx.Encode([]string{"a", "b", "c"}, cells))
	db, err := Open(diffBucket, WithBackend("inproc", s3api.NewInProc(st)))
	if err != nil {
		t.Fatal(err)
	}
	pred, err := sqlparse.ParseExpr("a % 50 = 7")
	if err != nil {
		t.Fatal(err)
	}
	load := func() *Relation {
		rels, err := db.NewExecContext(context.Background()).LoadTables(0, Load{Table: "t", Where: pred})
		if err != nil {
			t.Fatal(err)
		}
		return rels[0]
	}
	kept := len(load().Rows)
	if kept != rows/50 {
		t.Fatalf("the load kept %d rows, want %d", kept, rows/50)
	}
	cell := int(unsafe.Sizeof(value.Value{}))
	limit := kept*w*cell*3/2 + firstBlock*w*cell + kept*int(unsafe.Sizeof(Row{}))
	const runs = 5
	if got := int(allocatedBytes(func() {
		for range runs {
			load()
		}
	})) / runs; got > limit {
		t.Errorf("a %d-row load keeping %d rows allocates %d bytes, want at most %d", rows, kept, got, limit)
	}
	if n := testing.AllocsPerRun(runs, func() { load() }); n > 60 {
		t.Errorf("a %d-row load keeping %d rows allocates %v times, want at most 60", rows, kept, n)
	}
}
