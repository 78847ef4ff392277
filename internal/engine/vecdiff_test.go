package engine

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"pushdowndb/internal/colformat"
	"pushdowndb/internal/csvx"
	"pushdowndb/internal/s3api"
	"pushdowndb/internal/selectengine"
	"pushdowndb/internal/sqlparse"
	"pushdowndb/internal/store"
	"pushdowndb/internal/value"
)

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
// colformat table answer planned (the storage side's columnar select) as the
// forced baseline does (whole objects decoded a row group at a time), the
// plain-GET load path decodes the binary layout instead of mis-parsing it as
// CSV, and TableHeader answers from the footer schema. A statement whose
// answer shows code, a text column of numeric-looking cells, is only run:
// the baseline keeps "00501" as text where the pushed scan's response types
// it again (ROADMAP open item 11).
func TestVecRowColumnarTable(t *testing.T) {
	st := columnarFixture(t)
	queries := []struct {
		name          string
		sql           string
		ordered, text bool
	}{
		{"col-filter", "SELECT id, price FROM c WHERE price >= 20 AND code = '00501'", false, false},
		{"col-date", "SELECT id FROM c WHERE ship >= '2022-01-05'", false, false},
		{"col-null", "SELECT id FROM c WHERE price IS NULL", false, false},
		{"col-group", "SELECT code, COUNT(*) AS n, SUM(price) AS s FROM c GROUP BY code ORDER BY code", true, true},
		{"col-agg", "SELECT COUNT(*) AS n, AVG(price) AS av, MIN(ship) AS lo FROM c", false, false},
	}
	db, err := Open(diffBucket, WithBackend("inproc", s3api.NewInProc(st)))
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		planned, _, err := db.QueryContext(context.Background(), q.sql)
		if err != nil {
			t.Fatalf("%s (planned): %v", q.name, err)
		}
		baseline := forcedRel(t, db, StrategyBaseline, q.sql)
		if p, b := render(planned, q.ordered), render(baseline, q.ordered); (p != b && !q.text) || len(planned.Rows) == 0 {
			t.Errorf("%s: planned differs from the forced baseline over columnar table\nplanned:\n%s\nbaseline:\n%s",
				q.name, p, b)
		}
	}

	// The server-side baseline fetches partitions whole with plain GETs;
	// colformat objects must decode through the columnar reader.
	const baseline = "SELECT id, code FROM c WHERE id < 10"
	if rel := forcedRel(t, db, StrategyBaseline, baseline); len(rel.Rows) != 10 {
		t.Errorf("forced baseline over columnar table kept %d rows, want 10", len(rel.Rows))
	}

	header, err := db.NewExec().TableHeader("hdr", 0, "c")
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
// battery does not reach: the nil-predicate identity, the empty-input
// aggregate synthesis and the short-row rule over a ragged relation.
func TestOperatorEdgeCases(t *testing.T) {
	rel := &Relation{
		Cols: []string{"a", "b"},
		Rows: []Row{
			{value.Int(1), value.Str("x")},
			{value.Int(2), value.Null()},
			{value.Int(3), value.Str("y")},
		},
	}
	if out, err := Filter(rel, nil); err != nil || out != rel {
		t.Errorf("Filter with no predicate: got (%p, %v), want the input relation", out, err)
	}

	empty := &Relation{Cols: []string{"a", "b"}}
	for src, want := range map[string]string{
		"COUNT(*) AS n, SUM(a) AS s":      "n|s\n0|",
		"COUNT(*) + 0 AS n, AVG(a) AS av": "n|av\n0|",
	} {
		items := selectOf(t, "SELECT "+src+" FROM t").Items
		agg, err := GroupBy(empty, nil, items)
		if err != nil {
			t.Fatalf("aggregate of empty, %q: %v", src, err)
		}
		if got := render(agg, true); got != want {
			t.Errorf("empty-input aggregate %q:\n%s\nwant one row with COUNT 0:\n%s", src, got, want)
		}
	}

	// A ragged relation follows the short-row rule (value.CSVCell): decoded,
	// a short row reads NULL past its end and an over-long row's extra cell
	// is not part of it. Hand-built, the operators read it the same way.
	cols := []string{"a", "b"}
	decoded := relOf(cols, [][]string{{"1", "x"}, {"2"}, {"3", "y", "extra"}})
	handBuilt := &Relation{Cols: cols, Rows: []Row{
		{value.Int(1), value.Str("x")},
		{value.Int(2)},
		{value.Int(3), value.Str("y"), value.Str("extra")},
	}}
	proj := selectOf(t, "SELECT b, a + 1 AS a1, * FROM t WHERE a >= 2 AND b IS NULL")
	grouped := selectOf(t, "SELECT b, COUNT(*) AS n FROM t GROUP BY b")
	for name, tc := range map[string]struct {
		op   func(*Relation) (*Relation, error)
		want string
	}{
		"filter":  {func(rel *Relation) (*Relation, error) { return Filter(rel, proj.Where) }, "a|b\n2|"},
		"project": {func(rel *Relation) (*Relation, error) { return Project(rel, proj.Items) }, "b|a1|a|b\nx|2|1|x\n|3|2|\ny|4|3|y"},
		"groupby": {func(rel *Relation) (*Relation, error) {
			return GroupBy(rel, grouped.GroupBy, grouped.Items)
		}, "b|n\nx|1\n|1\ny|1"},
	} {
		out, err := tc.op(decoded)
		if err != nil {
			t.Fatalf("ragged %s: %v", name, err)
		}
		if got := render(out, true); got != tc.want {
			t.Errorf("ragged %s:\n%s\nwant\n%s", name, got, tc.want)
		}
		if name == "filter" {
			// Filter hands back its input's rows as they are.
			continue
		}
		if hand, err := tc.op(handBuilt); err != nil || render(hand, true) != tc.want {
			t.Errorf("ragged %s over a hand-built relation: %v, %v; want\n%s", name, hand, err, tc.want)
		}
	}
	if got := render(decoded, true); got != "a|b\n1|x\n2|\n3|y" {
		t.Errorf("decoded ragged relation:\n%s", got)
	}
}

// TestRaggedRowsDoNotPanic is the operator-level regression for the daemon
// crash: decoded, a short row's missing join key is a NULL — the row never
// matches — where it used to index out of range, with either side built.
func TestRaggedRowsDoNotPanic(t *testing.T) {
	left := relOf([]string{"a", "k"}, [][]string{{"1", "10"}, {"2"}, {"3", "30"}})
	right := relOf([]string{"k2", "w"}, [][]string{{"10", "x"}, {}, {"30", "y"}, {"10", "z"}})
	const want = "1 | 10 | 10 | x\n3 | 30 | 30 | y\n1 | 10 | 10 | z\n"
	for _, swap := range []bool{false, true} {
		l, r, lk, rk := left, right, "k", "k2"
		if swap {
			l, r, lk, rk = right, left, "k2", "k"
		}
		out, err := HashJoin(l, r, lk, rk)
		if err != nil {
			t.Fatalf("join (swap=%v): %v", swap, err)
		}
		if len(out.Rows) != 3 {
			t.Errorf("join (swap=%v) returned %d rows, want 3:\n%s", swap, len(out.Rows), out)
		}
		if !swap {
			if got := strings.SplitN(out.String(), "\n", 2)[1]; got != want {
				t.Errorf("join:\n%s\nwant\n%s", got, want)
			}
		}
	}
}

// TestRaggedObjectEndToEnd is the end-to-end half of the ragged-row
// regression: partitions holding a short row go through LoadTable into the
// baseline join and the forced-baseline top-K, which answer what they must —
// the short rows' missing keys match nothing and sort as NULL — and do not
// panic; the sampling top-K answers as the baseline at every sample size.
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
	db, err := Open(diffBucket, WithBackend("inproc", s3api.NewInProc(st)))
	if err != nil {
		t.Fatal(err)
	}
	join, err := db.NewExecContext(ctx).Join(JoinSpec{SQL: "SELECT * FROM l JOIN r ON l.k = r.k2"}, StrategyBaseline)
	if err != nil {
		t.Fatalf("baseline join: %v", err)
	}
	if got := render(join, false); got != wantJoin {
		t.Errorf("baseline join:\n%s\nwant\n%s", got, wantJoin)
	}
	for sql, want := range map[string]string{
		"SELECT * FROM l ORDER BY k DESC LIMIT 2": wantTop,
		"SELECT * FROM l ORDER BY k LIMIT 2":      "a|k\n2|\n1|10",
	} {
		top, _, err := db.QueryForced(ctx, sql, StrategyBaseline)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if got := render(top, true); got != want {
			t.Errorf("%s:\n%s\nwant\n%s", sql, got, want)
		}
		for _, s := range []int64{0, 2, 4} {
			sampled, err := db.NewExecContext(ctx).SamplingTopK(sql, s)
			if err != nil {
				t.Fatalf("SamplingTopK(%s, %d): %v", sql, s, err)
			}
			if got := render(sampled, true); got != want {
				t.Errorf("SamplingTopK(%s, %d):\n%s\nwant\n%s", sql, s, got, want)
			}
		}
	}
	plan, _, err := planOf(db, "SELECT a, w FROM l JOIN r ON l.k = r.k2")
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range plan.Scans {
		if sc.StatsSource != StatsFromObject {
			t.Errorf("%s planned from %q, want %q", sc.Table, sc.StatsSource, StatsFromObject)
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
// decoded per partition and folded into one group table — against the
// forced baseline over the same rows as CSV (whole objects fetched with
// GETs, decoded and grouped: another decode and another way into the
// block), in every composition of the select pipeline, over CSV and
// columnar partitions and the empty table, cold and warm, and with a ragged
// response. The columnar table's reference is the CSV table's: its text
// columns stay text on the baseline, where a response types them again
// (ROADMAP open item 11).
func TestFoldedScanDifferential(t *testing.T) {
	st := foldFixture(t)
	answer := func(rel *Relation, err error) string {
		if err != nil {
			return "error: " + err.Error()
		}
		return render(rel, true)
	}
	planned := func(db *DB, sql string) string {
		rel, _, err := db.QueryContext(context.Background(), sql)
		return answer(rel, err)
	}
	for _, comp := range compositions {
		for _, ragged := range []string{"", store.PartitionKey("f", 2)} {
			var backend s3api.Backend = s3api.NewInProc(st)
			if ragged != "" {
				backend = raggedSelects{backend, ragged}
			}
			db := comp.open(t, backend, 0)
			for _, table := range []string{"f", "fc", "e"} {
				for _, stmt := range foldStatements {
					sql, ref := fmt.Sprintf(stmt, table), fmt.Sprintf(stmt, strings.TrimSuffix(table, "c"))
					rel, _, err := db.QueryForced(context.Background(), ref, StrategyBaseline)
					want := answer(rel, err)
					for _, run := range []string{"cold", "warm"} {
						if got := planned(db, sql); got != want {
							t.Errorf("%s ragged=%q %s (%s):\nfolded:\n%s\nforced baseline:\n%s", comp.name, ragged, sql, run, got, want)
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
		if got := planned(db, sql); got != want {
			t.Errorf("%s:\n%s\nwant\n%s", sql, got, want)
		}
	}
}
