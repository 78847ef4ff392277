package engine_test

import (
	"context"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"pushdowndb/internal/colformat"
	"pushdowndb/internal/engine"
	"pushdowndb/internal/obs"
	"pushdowndb/internal/race"
	"pushdowndb/internal/s3api"
	"pushdowndb/internal/sqlparse"
	"pushdowndb/internal/store"
	"pushdowndb/internal/tpch"
	"pushdowndb/internal/value"
)

// The pruned-load battery: LoadTable with named columns must return the full
// load projected onto those columns — the kept header positions in table
// order — and bill exactly
// what the full load bills, over CSV and colformat partitions alike.

const pruneBucket = "prune"

// pruneStore writes table csv, whose partitions hold a mixed-case header, a
// short row, an over-long row and a header-only partition, and table col,
// the same columns and well-formed rows as colformat partitions (the last
// of them header-only too).
func pruneStore(t *testing.T) *store.Store {
	t.Helper()
	st := store.New()
	for i, data := range []string{
		"K,Name,note,D\n1,ann,hi,1994-01-01\n2,bo\n3,cy,x,1995-02-02,extra\n",
		"K,Name,note,D\n",
		"K,Name,note,D\n4,dee,,1996-03-03\n5,\"e,f\",\"say \"\"hi\"\"\",1997-04-04\n",
	} {
		st.Put(pruneBucket, store.PartitionKey("csv", i), []byte(data))
	}
	schema := colformat.Schema{{Name: "K", Kind: value.KindInt}, {Name: "Name", Kind: value.KindString},
		{Name: "note", Kind: value.KindString}, {Name: "D", Kind: value.KindDate}}
	rows := [][]value.Value{
		{value.Int(1), value.Str("ann"), value.Str("hi"), value.Date(8766)},
		{value.Int(2), value.Str("bo"), value.Null(), value.Date(9000)},
		{value.Int(3), value.Str("cy"), value.Str("x"), value.Null()},
	}
	if err := engine.PartitionTableColumnar(st, pruneBucket, "col", schema, rows, 4, 2, false); err != nil {
		t.Fatal(err)
	}
	return st
}

// project is the reference: rel projected onto cols as a pruned load
// resolves them (ColIndex, first match, duplicates once, table order).
func project(rel *engine.Relation, cols []string) *engine.Relation {
	var keep []int
	for i := range rel.Cols {
		for _, c := range cols {
			if rel.ColIndex(c) == i {
				keep = append(keep, i)
				break
			}
		}
	}
	out := &engine.Relation{}
	for _, i := range keep {
		out.Cols = append(out.Cols, rel.Cols[i])
	}
	for _, row := range rel.Rows {
		cut := engine.Row{}
		for _, i := range keep {
			cut = append(cut, row[i])
		}
		out.Rows = append(out.Rows, cut)
	}
	return out
}

// load runs one traced LoadTable on a fresh execution.
func load(db *engine.DB, table string, cols ...string) (*engine.Relation, *engine.Exec, *obs.TraceData, error) {
	tr := obs.New("load", "query")
	e := db.NewExecContext(obs.WithTrace(context.Background(), tr))
	rel, err := e.LoadTable("load "+table, e.NextStage(), table, cols...)
	tr.Finish()
	return rel, e, tr.Snapshot(), err
}

func TestPrunedLoadIsProjectedFullLoad(t *testing.T) {
	db, err := engine.Open(pruneBucket, engine.WithBackend("s3sim", s3api.NewInProc(pruneStore(t))))
	if err != nil {
		t.Fatal(err)
	}
	for _, table := range []string{"csv", "col"} {
		full, fullExec, _, err := load(db, table)
		if err != nil {
			t.Fatal(err)
		}
		for _, cols := range [][]string{
			{"k"},
			{"NAME", "d"},
			{"D", "d", "k", "K"},
			{"note"},
			{"d", "note", "name", "k"},
		} {
			got, e, trace, err := load(db, table, cols...)
			if err != nil {
				t.Fatalf("%s %q: %v", table, cols, err)
			}
			if want := project(full, cols); !reflect.DeepEqual(got, want) {
				t.Errorf("%s %q: pruned load differs from the projected full load:\n got %v %v\nwant %v %v",
					table, cols, got.Cols, got.Rows, want.Cols, want.Rows)
			}
			if g, w := totals(e), totals(fullExec); g != w {
				t.Errorf("%s %q: metered %v requests and bytes, the full load %v", table, cols, g, w)
			}
			if g, w := e.RuntimeSeconds(), fullExec.RuntimeSeconds(); g != w {
				t.Errorf("%s %q: %v virtual seconds, the full load %v", table, cols, g, w)
			}
			sp := trace.Find("load " + table)
			if n, ok := sp.Int("cols"); !ok || n != int64(len(got.Cols)) {
				t.Errorf("%s %q: load span cols = %d (ok=%v), want %d", table, cols, n, ok, len(got.Cols))
			}
			if n, ok := sp.Int("rows"); !ok || n != int64(len(got.Rows)) {
				t.Errorf("%s %q: load span rows = %d (ok=%v), want %d", table, cols, n, ok, len(got.Rows))
			}
		}

		if _, _, _, err := load(db, table, "k", "nope"); s3api.KindOf(err) != s3api.KindBadRequest ||
			!strings.Contains(err.Error(), `"`+table+`"`) || !strings.Contains(err.Error(), `"nope"`) {
			t.Errorf("%s: a column the table lacks gave %v (kind %q), want a bad_request naming the table and the column",
				table, err, s3api.KindOf(err))
		}
	}
}

// TestPrunedLoadShortRowReadsNull: every loaded row is as wide as its
// header. The short row "2,bo" reads D as NULL and the over-long row
// "3,cy,x,1995-02-02,extra" drops its extra cell, on the full and the pruned
// load alike, so a predicate on D sees the same rows on both.
func TestPrunedLoadShortRowReadsNull(t *testing.T) {
	db, err := engine.Open(pruneBucket, engine.WithBackend("s3sim", s3api.NewInProc(pruneStore(t))))
	if err != nil {
		t.Fatal(err)
	}
	full, _, _, err := load(db, "csv")
	if err != nil {
		t.Fatal(err)
	}
	pruned, _, _, err := load(db, "csv", "k", "d")
	if err != nil {
		t.Fatal(err)
	}
	pred, err := sqlparse.ParseExpr("d > '1994-06-01'")
	if err != nil {
		t.Fatal(err)
	}
	for _, rel := range []*engine.Relation{full, pruned} {
		for _, row := range rel.Rows {
			if len(row) != len(rel.Cols) {
				t.Errorf("row %v is not as wide as its header %v", row, rel.Cols)
			}
		}
		if d := rel.Rows[1][rel.ColIndex("d")]; !d.IsNull() {
			t.Errorf("the short row's D = %v, want NULL", d)
		}
		got, err := engine.Filter(rel, pred)
		if err != nil {
			t.Fatal(err)
		}
		var ks []string
		for _, row := range got.Rows {
			ks = append(ks, row[got.ColIndex("k")].String())
		}
		if strings.Join(ks, ",") != "3,4,5" {
			t.Errorf("%v: D > '1994-06-01' keeps K %v, want 3,4,5", rel.Cols, ks)
		}
	}
}

// totals is what e billed in requests and bytes.
func totals(e *engine.Exec) [4]int64 {
	requests, scanned, returned, got := e.Metrics.Totals()
	return [4]int64{requests, scanned, returned, got}
}

// TestPrunedLoadAllocates pins the point of pruning: loading the 4 of
// lineitem's 16 columns Q6 reads allocates at most 40 % of the bytes of the
// full load.
func TestPrunedLoadAllocates(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation sizes differ under the race detector")
	}
	st := store.New()
	ds, err := tpch.Load(context.Background(), st, tpch.Dataset{SF: 0.002, Seed: 42, Bucket: "tpch", Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	db, err := engine.Open(ds.Bucket, engine.WithBackend("s3sim", s3api.NewInProc(st)))
	if err != nil {
		t.Fatal(err)
	}
	measure := func(cols ...string) uint64 {
		run := func() {
			e := db.NewExec()
			if _, err := e.LoadTable("load lineitem", e.NextStage(), "lineitem", cols...); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm the partition listing's and the store's first-use paths
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	full := measure()
	pruned := measure("l_shipdate", "l_discount", "l_quantity", "l_extendedprice")
	if float64(pruned) > 0.4*float64(full) {
		t.Errorf("loading 4 of 16 columns allocates %d bytes, %.0f %% of the full load's %d; want at most 40 %%",
			pruned, 100*float64(pruned)/float64(full), full)
	}
	t.Logf("pruned %d B, full %d B (%.0f %%)", pruned, full, 100*float64(pruned)/float64(full))
}
