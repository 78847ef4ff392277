package engine

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"pushdowndb/internal/colformat"
	"pushdowndb/internal/csvx"
	"pushdowndb/internal/localfs"
	"pushdowndb/internal/s3api"
	"pushdowndb/internal/selectengine"
	"pushdowndb/internal/sqlparse"
	"pushdowndb/internal/store"
	"pushdowndb/internal/value"
)

// Spans-vs-one-span differential suite: the same corpus the cross-backend
// suite runs must produce byte-identical results with the local operators
// over the worker budget's spans (the default) and over one span
// (WithVectorized(false)), cold and warm, on both the in-process and the
// localfs backends. The operator-level battery is operators_test.go's.

func TestVecRowDifferentialCorpus(t *testing.T) {
	backends := map[string]s3api.Backend{}
	inproc := s3api.NewInProc(store.New())
	diffLoad(t, inproc)
	backends["inproc"] = inproc
	fs := localfs.New(t.TempDir())
	diffLoad(t, fs)
	backends["localfs"] = fs

	for name, backend := range backends {
		t.Run(name, func(t *testing.T) {
			dbVec, err := Open(diffBucket,
				WithBackend(name, backend),
				WithResultCache(testCacheBudget))
			if err != nil {
				t.Fatal(err)
			}
			dbRow, err := Open(diffBucket,
				WithBackend(name, backend),
				WithResultCache(testCacheBudget),
				WithVectorized(false))
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range diffQueries {
				vecCold, _, err := dbVec.QueryContext(context.Background(), q.sql)
				if err != nil {
					t.Fatalf("%s (spans, cold): %v", q.name, err)
				}
				rowCold, _, err := dbRow.QueryContext(context.Background(), q.sql)
				if err != nil {
					t.Fatalf("%s (one span, cold): %v", q.name, err)
				}
				vecOut, rowOut := render(vecCold, q.ordered), render(rowCold, q.ordered)
				if vecOut != rowOut {
					t.Errorf("%s: spans differ from one span (cold)\nspans:\n%s\none span:\n%s",
						q.name, vecOut, rowOut)
				}
				vecWarm, _, err := dbVec.QueryContext(context.Background(), q.sql)
				if err != nil {
					t.Fatalf("%s (spans, warm): %v", q.name, err)
				}
				rowWarm, _, err := dbRow.QueryContext(context.Background(), q.sql)
				if err != nil {
					t.Fatalf("%s (one span, warm): %v", q.name, err)
				}
				if out := render(vecWarm, q.ordered); out != vecOut {
					t.Errorf("%s: spans warm differs from cold\ncold:\n%s\nwarm:\n%s",
						q.name, vecOut, out)
				}
				if out := render(rowWarm, q.ordered); out != rowOut {
					t.Errorf("%s: one span warm differs from cold\ncold:\n%s\nwarm:\n%s",
						q.name, rowOut, out)
				}
			}
		})
	}
}

// columnarFixture writes a nasty columnar table: NULLs in every column, a
// numeric-looking string column, dates, floats with a NaN.
func columnarFixture(t testing.TB) *store.Store {
	t.Helper()
	st := store.New()
	schema := colformat.Schema{
		{Name: "id", Kind: value.KindInt},
		{Name: "price", Kind: value.KindFloat},
		{Name: "ship", Kind: value.KindDate},
		{Name: "code", Kind: value.KindString},
	}
	var rows [][]value.Value
	for i := 0; i < 57; i++ {
		row := []value.Value{
			value.Int(int64(i)),
			value.Float(float64(i) * 1.25),
			value.Date(int64(19000 + i%17)),
			value.Str([]string{"00501", "A", " 7", "7"}[i%4]),
		}
		switch i % 9 {
		case 3:
			row[1] = value.Null()
		case 5:
			row[3] = value.Null()
		case 7:
			row[2] = value.Null()
		}
		rows = append(rows, row)
	}
	if err := PartitionTableColumnar(st, diffBucket, "c", schema, rows, 3, 8, true); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestVecRowColumnarTable pins the columnar decode path: queries over a
// colformat table agree over spans and over one span, the plain-GET
// load path decodes the binary layout instead of mis-parsing it as CSV, and
// TableHeader answers from the footer schema.
func TestVecRowColumnarTable(t *testing.T) {
	st := columnarFixture(t)
	queries := []struct {
		name    string
		sql     string
		ordered bool
	}{
		{"col-filter", "SELECT id, price FROM c WHERE price >= 20 AND code = '00501'", false},
		{"col-date", "SELECT id FROM c WHERE ship >= '2022-01-05'", false},
		{"col-null", "SELECT id FROM c WHERE price IS NULL", false},
		{"col-group", "SELECT code, COUNT(*) AS n, SUM(price) AS s FROM c GROUP BY code ORDER BY code", true},
		{"col-agg", "SELECT COUNT(*) AS n, AVG(price) AS av, MIN(ship) AS lo FROM c", false},
	}
	open := func(vectorized bool) *DB {
		db, err := Open(diffBucket,
			WithBackend("inproc", s3api.NewInProc(st)),
			WithVectorized(vectorized))
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	dbVec, dbRow := open(true), open(false)
	for _, q := range queries {
		vecRel, _, err := dbVec.QueryContext(context.Background(), q.sql)
		if err != nil {
			t.Fatalf("%s (spans): %v", q.name, err)
		}
		rowRel, _, err := dbRow.QueryContext(context.Background(), q.sql)
		if err != nil {
			t.Fatalf("%s (one span): %v", q.name, err)
		}
		if v, r := render(vecRel, q.ordered), render(rowRel, q.ordered); v != r {
			t.Errorf("%s: spans differ from one span over columnar table\nspans:\n%s\none span:\n%s",
				q.name, v, r)
		}
	}

	// The server-side baseline fetches partitions whole with plain GETs;
	// colformat objects must decode through the columnar reader.
	const baseline = "SELECT id, code FROM c WHERE id < 10"
	vecRel := forcedRel(t, dbVec, StrategyBaseline, baseline)
	rowRel := forcedRel(t, dbRow, StrategyBaseline, baseline)
	if v, r := render(vecRel, false), render(rowRel, false); v != r {
		t.Errorf("forced baseline over columnar table: spans\n%s\none span\n%s", v, r)
	}
	if len(vecRel.Rows) != 10 {
		t.Errorf("forced baseline over columnar table kept %d rows, want 10", len(vecRel.Rows))
	}

	header, err := dbVec.NewExec().TableHeader("hdr", 0, "c")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"id", "price", "ship", "code"}
	if len(header) != len(want) {
		t.Fatalf("TableHeader over columnar table = %v, want %v", header, want)
	}
	for i := range want {
		if header[i] != want[i] {
			t.Fatalf("TableHeader over columnar table = %v, want %v", header, want)
		}
	}
}

// TestProbeStatsColumnar pins the planner's format detection on both of
// its paths: the statistics object records the table's format, and without
// one the stats probe marks columnar tables (every partition answered by
// the columnar select path) and leaves CSV tables unmarked — with no extra
// requests.
func TestProbeStatsColumnar(t *testing.T) {
	st := columnarFixture(t)
	ctxPut := s3api.NewInProc(st)
	diffLoad(t, ctxPut) // CSV tables p/ord/item next to columnar c
	db, err := Open(diffBucket, WithBackend("inproc", ctxPut))
	if err != nil {
		t.Fatal(err)
	}
	idLt10, err := sqlparse.ParseExpr("id < 10")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{StatsFromObject, StatsFromProbe} {
		db.InvalidateStats()
		e := db.NewExec()
		obj := func(table string) *statsObj {
			if path == StatsFromProbe {
				return nil
			}
			ts := e.statsObject(table, 0)
			if ts == nil {
				t.Fatalf("table %s has no usable statistics object", table)
			}
			return ts
		}
		col, cached, err := e.probeStats(obj("c"), "c", idLt10, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if cached || col.source != path || !col.stats.Columnar {
			t.Errorf("%s: probeStats over a colformat table: cached %v, source %q, Columnar %v", path, cached, col.source, col.stats.Columnar)
		}
		csv, _, err := e.probeStats(obj("p"), "p", nil, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if csv.stats.Columnar {
			t.Errorf("%s: probeStats over a CSV table set Columnar", path)
		}
		// The flag and the source must survive the stats cache.
		again, cached, err := e.probeStats(obj("c"), "c", idLt10, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !cached || again != col {
			t.Errorf("%s: cached probeStats: cached %v, %+v; want what the first call returned, %+v", path, cached, again, col)
		}
	}
}

// TestOperatorEdgeCases pins operator-level edge cases the differential
// battery does not reach, over one span and two: the nil-predicate
// identity, the empty-input aggregate synthesis and the short-row rule over
// a ragged relation.
func TestOperatorEdgeCases(t *testing.T) {
	ref, vecOps := Operators{}, Operators{Workers: 2}
	rel := &Relation{
		Cols: []string{"a", "b"},
		Rows: []Row{
			{value.Int(1), value.Str("x")},
			{value.Int(2), value.Null()},
			{value.Int(3), value.Str("y")},
		},
	}
	for name, o := range map[string]Operators{"one span": ref, "two spans": vecOps} {
		if out, err := o.Filter(rel, nil); err != nil || out != rel {
			t.Errorf("%s Filter with no predicate: got (%p, %v), want the input relation", name, out, err)
		}
	}

	empty := &Relation{Cols: []string{"a", "b"}}
	for _, src := range []string{"COUNT(*) AS n, SUM(a) AS s", "COUNT(*) + 0 AS n, AVG(a) AS av"} {
		items := selectOf(t, "SELECT "+src+" FROM t").Items
		vecAgg, err := vecOps.GroupBy(empty, nil, items)
		if err != nil {
			t.Fatalf("two-span aggregate of empty, %q: %v", src, err)
		}
		refAgg, err := ref.GroupBy(empty, nil, items)
		if err != nil {
			t.Fatalf("one-span aggregate of empty, %q: %v", src, err)
		}
		if v, r := render(vecAgg, true), render(refAgg, true); v != r {
			t.Errorf("empty-input aggregate %q: two spans\n%s\none span\n%s", src, v, r)
		}
		if len(refAgg.Rows) != 1 || refAgg.Rows[0][0].String() != "0" {
			t.Errorf("empty-input aggregate %q = %v, want one row with COUNT 0", src, refAgg.Rows)
		}
	}

	// A ragged relation follows the short-row rule (value.CSVCell): decoded,
	// a short row reads NULL past its end and an over-long row's extra cell
	// is not part of it, and spans read it as one span does. Hand-built, one
	// span reads it the same way.
	cols := []string{"a", "b"}
	decoded := relOf(cols, [][]string{{"1", "x"}, {"2"}, {"3", "y", "extra"}})
	handBuilt := &Relation{Cols: cols, Rows: []Row{
		{value.Int(1), value.Str("x")},
		{value.Int(2)},
		{value.Int(3), value.Str("y"), value.Str("extra")},
	}}
	proj := selectOf(t, "SELECT b, a + 1 AS a1, * FROM t WHERE a >= 2 AND b IS NULL")
	grouped := selectOf(t, "SELECT b, COUNT(*) AS n FROM t GROUP BY b")
	for name, op := range map[string]func(Operators, *Relation) (*Relation, error){
		"filter":  func(o Operators, rel *Relation) (*Relation, error) { return o.Filter(rel, proj.Where) },
		"project": func(o Operators, rel *Relation) (*Relation, error) { return o.Project(rel, proj.Items) },
		"groupby": func(o Operators, rel *Relation) (*Relation, error) {
			return o.GroupBy(rel, grouped.GroupBy, grouped.Items)
		},
	} {
		vecOut, vecErr := op(vecOps, decoded)
		refOut, refErr := op(ref, decoded)
		if vecErr != nil || refErr != nil {
			t.Fatalf("ragged %s: two-span err %v, one-span err %v", name, vecErr, refErr)
		}
		if v, r := render(vecOut, false), render(refOut, false); v != r {
			t.Errorf("ragged %s: two spans\n%s\none span\n%s", name, v, r)
		}
		if name == "filter" {
			// Filter hands back its input's rows as they are.
			continue
		}
		if hand, err := op(ref, handBuilt); err != nil || render(hand, false) != render(refOut, false) {
			t.Errorf("ragged %s over a hand-built relation: %v, %v; want\n%s", name, hand, err, render(refOut, false))
		}
	}
	if got := render(decoded, true); got != "a|b\n1|x\n2|\n3|y" {
		t.Errorf("decoded ragged relation:\n%s", got)
	}
}

// TestRaggedRowsDoNotPanic is the operator-level regression for the daemon
// crash: decoded, a short row's missing join key is a NULL — the row never
// matches — over one span and over several, where it used to index out of
// range on a worker goroutine.
func TestRaggedRowsDoNotPanic(t *testing.T) {
	left := relOf([]string{"a", "k"}, [][]string{{"1", "10"}, {"2"}, {"3", "30"}})
	right := relOf([]string{"k2", "w"}, [][]string{{"10", "x"}, {}, {"30", "y"}, {"10", "z"}})
	const want = "1 | 10 | 10 | x\n3 | 30 | 30 | y\n1 | 10 | 10 | z\n"
	for name, o := range map[string]Operators{
		"one span": {}, "workers@1": {Workers: 1}, "workers@4": {Workers: 4},
	} {
		for _, swap := range []bool{false, true} {
			l, r, lk, rk := left, right, "k", "k2"
			if swap {
				l, r, lk, rk = right, left, "k2", "k"
			}
			out, err := o.HashJoin(l, r, lk, rk)
			if err != nil {
				t.Fatalf("%s join (swap=%v): %v", name, swap, err)
			}
			if len(out.Rows) != 3 {
				t.Errorf("%s join (swap=%v) returned %d rows, want 3:\n%s", name, swap, len(out.Rows), out)
			}
			if !swap {
				if got := strings.SplitN(out.String(), "\n", 2)[1]; got != want {
					t.Errorf("%s join:\n%s\nwant\n%s", name, got, want)
				}
			}
		}
	}
}

// TestRaggedObjectEndToEnd is the end-to-end half of the ragged-row
// regression: partitions holding a short row go through LoadTable into the
// baseline join and the forced-baseline top-K over the worker budget's spans
// and over one span, which must agree — the short rows' missing keys match nothing and sort as NULL —
// and not panic; the sampling top-K answers as the baseline at every sample
// size.
// The loader's statistics objects hold the short rows too, shaped to the
// header, so the planner reads both tables from them.
func TestRaggedObjectEndToEnd(t *testing.T) {
	ctx := context.Background()
	st := store.New()
	if err := PartitionTable(ctx, st, diffBucket, "l", []string{"a", "k"},
		[][]string{{"1", "10"}, {"2"}, {"3", "30"}, {"4", "10"}}, 2); err != nil {
		t.Fatal(err)
	}
	if err := PartitionTable(ctx, st, diffBucket, "r", []string{"k2", "w"},
		[][]string{{"10", "x"}, {"20"}, {"30", "y"}}, 1); err != nil {
		t.Fatal(err)
	}
	const wantJoin = "a|k|k2|w\n1|10|10|x\n3|30|30|y\n4|10|10|x"
	const wantTop = "a|k\n3|30\n1|10"
	for _, vectorized := range []bool{true, false} {
		db, err := Open(diffBucket, WithBackend("inproc", s3api.NewInProc(st)), WithVectorized(vectorized))
		if err != nil {
			t.Fatal(err)
		}
		join, err := db.NewExecContext(ctx).Join(JoinSpec{SQL: "SELECT * FROM l JOIN r ON l.k = r.k2"}, StrategyBaseline)
		if err != nil {
			t.Fatalf("vectorized=%v baseline join: %v", vectorized, err)
		}
		if got := render(join, false); got != wantJoin {
			t.Errorf("vectorized=%v baseline join:\n%s\nwant\n%s", vectorized, got, wantJoin)
		}
		for sql, want := range map[string]string{
			"SELECT * FROM l ORDER BY k DESC LIMIT 2": wantTop,
			"SELECT * FROM l ORDER BY k LIMIT 2":      "a|k\n2|\n1|10",
		} {
			top, _, err := db.QueryForced(ctx, sql, StrategyBaseline)
			if err != nil {
				t.Fatalf("vectorized=%v %s: %v", vectorized, sql, err)
			}
			if got := render(top, true); got != want {
				t.Errorf("vectorized=%v %s:\n%s\nwant\n%s", vectorized, sql, got, want)
			}
			for _, s := range []int64{0, 2, 4} {
				sampled, err := db.NewExecContext(ctx).SamplingTopK(sql, s)
				if err != nil {
					t.Fatalf("vectorized=%v SamplingTopK(%s, %d): %v", vectorized, sql, s, err)
				}
				if got := render(sampled, true); got != want {
					t.Errorf("vectorized=%v SamplingTopK(%s, %d):\n%s\nwant\n%s", vectorized, sql, s, got, want)
				}
			}
		}
		plan, _, err := planOf(db, "SELECT a, w FROM l JOIN r ON l.k = r.k2")
		if err != nil {
			t.Fatal(err)
		}
		for _, sc := range plan.Scans {
			if sc.StatsSource != StatsFromObject {
				t.Errorf("vectorized=%v: %s planned from %q, want %q", vectorized, sc.Table, sc.StatsSource, StatsFromObject)
			}
		}
	}
}

// foldFixture writes the table the folded grouped scan is judged on, as CSV
// ("f") and columnar text ("fc") partitions put object by object, so which
// row meets which partition is the test's choice: x is all-INT in partition
// 0, FLOAT in 2 and text in 3; partition 1 is empty; group zz is first seen
// in the last partition; the keys 17 / 17.0, the empty cell (NULL), NaN and -0 / 0
// each meet their twin across a partition boundary. "e" is the empty table.
func foldFixture(t *testing.T) *store.Store {
	t.Helper()
	header := []string{"g", "x", "s"}
	parts := [][][]string{
		{{"17", "1", "10"}, {"17.0", "2", "20"}, {"", "3", "30"}, {"-0", "4", "35"}},
		{},
		{{"NaN", "4.5", "40"}, {"0", "5.5", "50"}, {"17", "6.5", "60"}, {"", "-1.5", "65"}},
		{{"zz", "12abc", "70"}, {"NaN", "7", "80"}, {"17.0", "", "90"}},
	}
	schema := colformat.Schema{{Name: "g", Kind: value.KindString}, {Name: "x", Kind: value.KindString}, {Name: "s", Kind: value.KindInt}}
	st := store.New()
	for i, rows := range parts {
		st.Put(pipeBucket, store.PartitionKey("f", i), csvx.Encode(header, rows))
		typed := make([][]value.Value, len(rows))
		for r, row := range rows {
			typed[r] = []value.Value{value.Null(), value.Null(), value.FromCSV(row[2])}
			for c, f := range row[:2] {
				if f != "" {
					typed[r][c] = value.Str(f)
				}
			}
		}
		data, err := colformat.Encode(schema, typed, 2, true)
		if err != nil {
			t.Fatal(err)
		}
		st.Put(pipeBucket, store.PartitionKey("fc", i), data)
		if i < 2 {
			st.Put(pipeBucket, store.PartitionKey("e", i), csvx.Encode(header, nil))
		}
	}
	return st
}

// foldStatements all run with a grouped or aggregating server-side tail over
// the plain pushed scan (the fixture has no statistics object): the shapes
// the fold must answer as the reference does, byte for byte and error for
// error, in first-seen group order where nothing sorts.
var foldStatements = []string{
	"SELECT g, COUNT(*) AS n, MIN(x) AS lo, MAX(x) AS hi, SUM(s) AS t FROM %s GROUP BY g",
	"SELECT g, AVG(s) AS a, COUNT(x) AS nx FROM %s WHERE s > 15 GROUP BY g",
	"SELECT COUNT(*) AS n FROM %s GROUP BY g ORDER BY g DESC LIMIT 3",
	"SELECT x, SUM(s) AS t FROM %s GROUP BY x ORDER BY SUM(s) DESC, x LIMIT 4",
	"SELECT COUNT(*) AS n, MAX(g) AS hi, MIN(s) AS first FROM %s GROUP BY s / 40",
	"SELECT COUNT(*) AS n, SUM(s) AS t, AVG(s) AS a, MIN(g) AS lo, MAX(x) AS hi FROM %s",
	"SELECT COUNT(*) AS n, SUM(s) AS t, MIN(x) AS lo FROM %s WHERE s > 1000",
	"SELECT g, COUNT(*) AS n FROM %s WHERE s > 1000 GROUP BY g",
	"SELECT SUM(x) AS t FROM %s",
	"SELECT g, SUM(x) AS t FROM %s GROUP BY g",
	"SELECT g, SUM(x + 1) AS t FROM %s WHERE s < 70 GROUP BY g ORDER BY g",
	"SELECT x + 1 AS k, COUNT(*) AS n FROM %s GROUP BY x + 1",
}

// raggedSelects grows the last row of one partition's select response by a
// cell, in a copy of its body (responses are shared): a cell past the
// header, which no decoder makes part of the row.
type raggedSelects struct {
	s3api.Backend
	part string
}

func (r raggedSelects) Select(ctx context.Context, bucket, key string, req selectengine.Request) (*selectengine.Result, error) {
	res, err := r.Backend.Select(ctx, bucket, key, req)
	if err != nil || !strings.HasSuffix(key, r.part) || len(res.Body) == 0 {
		return res, err
	}
	long := *res
	long.Body = append(slices.Clip(res.Body[:len(res.Body)-1]), ",stray\n"...)
	return &long, nil
}

// TestFoldedScanDifferential runs the grouped-scan fold — select responses
// decoded to typed vectors per partition and folded into one group table —
// against the reference operators over the same responses, in every
// composition of the select pipeline, over CSV and columnar partitions and
// the empty table, cold and warm, and with a ragged response.
func TestFoldedScanDifferential(t *testing.T) {
	st := foldFixture(t)
	answer := func(db *DB, sql string) string {
		rel, _, err := db.QueryContext(context.Background(), sql)
		if err != nil {
			return "error: " + err.Error()
		}
		return render(rel, true)
	}
	for _, comp := range compositions {
		for _, ragged := range []string{"", store.PartitionKey("f", 2)} {
			var backend s3api.Backend = s3api.NewInProc(st)
			if ragged != "" {
				backend = raggedSelects{backend, ragged}
			}
			folded, reference := comp.open(t, backend, 0), comp.open(t, backend, 0)
			reference.oneSpan = true
			for _, table := range []string{"f", "fc", "e"} {
				for _, stmt := range foldStatements {
					sql := fmt.Sprintf(stmt, table)
					want := answer(reference, sql)
					for _, run := range []string{"cold", "warm"} {
						got := answer(folded, sql)
						if got != want {
							t.Errorf("%s ragged=%q %s (%s):\nfolded:\n%s\nreference:\n%s", comp.name, ragged, sql, run, got, want)
						}
					}
				}
			}
		}
	}
	// The corpus means what it says: spot-check the answers themselves.
	db, err := Open(pipeBucket, WithBackend("inproc", s3api.NewInProc(st)))
	if err != nil {
		t.Fatal(err)
	}
	for sql, want := range map[string]string{
		"SELECT g, COUNT(*) AS n, MIN(x) AS lo, MAX(x) AS hi, SUM(s) AS t FROM f GROUP BY g": "g|n|lo|hi|t\n17|4|1|6.5|180\n|2|-1.5|3|95\n0|2|4|5.5|85\nNaN|2|4.5|7|120\nzz|1|12abc|12abc|70",
		"SELECT COUNT(*) AS n, SUM(s) AS t, MIN(x) AS lo FROM e":                             "n|t|lo\n0||",
		"SELECT g, COUNT(*) AS n FROM e GROUP BY g":                                          "g|n\n",
		"SELECT SUM(x) AS t FROM fc":                                                         `error: expr: SUM over non-numeric "12abc"`,
	} {
		if got := answer(db, sql); got != want {
			t.Errorf("%s:\n%s\nwant\n%s", sql, got, want)
		}
	}
}
