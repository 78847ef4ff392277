package engine

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"slices"
	"sort"
	"strings"
	"testing"

	"pushdowndb/internal/cloudsim"
	"pushdowndb/internal/colformat"
	"pushdowndb/internal/expr"
	"pushdowndb/internal/localfs"
	"pushdowndb/internal/s3api"
	"pushdowndb/internal/s3http"
	"pushdowndb/internal/store"
	"pushdowndb/internal/value"
)

// Cross-backend differential suite: the full query corpus must produce
// byte-identical results on the in-process, localfs and s3http backends,
// cold and warm (result cache on), and a warm repeat must reach no backend
// with a Select request. The engine claims backend independence
// (s3api.Backend + the conformance suite) and worker-count-independent
// determinism; this is the end-to-end check of both.

const diffBucket = "diff"

// diffQueries is the corpus: filters, group-bys, top-K, 2- and 3-table
// joins, and NULL/NaN edge cases. ordered marks queries whose row order is
// part of the contract (ORDER BY / LIMIT); unordered results are compared
// as sorted multisets.
var diffQueries = []struct {
	name    string
	sql     string
	ordered bool
}{
	{"filter-eq-zip", "SELECT pk, pname FROM p WHERE zip = '00501'", false},
	{"filter-range", "SELECT pk, score FROM p WHERE score >= 10 AND score < 60", false},
	{"filter-like-in", "SELECT pk, pname FROM p WHERE pname LIKE 'A%' OR zip IN ('00501', '99999')", false},
	{"filter-not-between", "SELECT pk FROM p WHERE NOT (score BETWEEN 20 AND 80)", false},
	{"proj-star", "SELECT * FROM p WHERE pk < 5", false},
	{"null-group", "SELECT ok FROM ord WHERE tag IS NULL", false},
	{"not-null-group", "SELECT ok FROM ord WHERE tag IS NOT NULL AND amount >= 50", false},
	{"groupby-count-sum", "SELECT zip, COUNT(*) AS n, SUM(score) AS s FROM p GROUP BY zip ORDER BY zip", true},
	{"groupby-null-key", "SELECT tag, COUNT(*) AS n, MIN(amount) AS lo, MAX(amount) AS hi, AVG(amount) AS av FROM ord GROUP BY tag ORDER BY n DESC, tag", true},
	{"topk-desc", "SELECT pk, score FROM p ORDER BY score DESC, pk LIMIT 5", true},
	{"topk-asc-nan", "SELECT pk, score FROM p ORDER BY score, pk LIMIT 8", true},
	{"nan-total-order", "SELECT pk, score FROM p ORDER BY score, pk", true},
	{"limit-pushdown", "SELECT pk FROM p WHERE score >= 0 LIMIT 3", true},
	{"agg-empty-input", "SELECT COUNT(*) AS n, SUM(score) AS s FROM p WHERE pk > 1000000", false},
	{"join2-groupby", "SELECT pname, SUM(amount) AS total FROM p JOIN ord ON p.pk = ord.pk GROUP BY pname ORDER BY pname", true},
	{"join2-filters", "SELECT COUNT(*) AS n FROM p JOIN ord ON p.pk = ord.pk WHERE score >= 50 AND amount < 100", false},
	{"join3-groupby", "SELECT pname, COUNT(*) AS n FROM p JOIN ord ON p.pk = ord.pk JOIN item ON ord.ok = item.ok WHERE qty >= 1 GROUP BY pname ORDER BY pname", true},
	{"join3-topk", "SELECT pname, qty FROM p JOIN ord ON p.pk = ord.pk JOIN item ON ord.ok = item.ok ORDER BY qty DESC, pname, ik LIMIT 6", true},
	{"join3-filter-only", "SELECT ik, amount FROM p JOIN ord ON p.pk = ord.pk JOIN item ON ord.ok = item.ok WHERE zip = '00501' AND tag IS NOT NULL AND qty >= 2", false},
	{"ragged-missing-cell", "SELECT rk FROM rag WHERE rd > '1994-06-01'", false},
	{"ragged-star", "SELECT * FROM rag", false},
	{"ragged-aggregate", "SELECT COUNT(*) AS n, COUNT(rd) AS nd, SUM(rv) AS s FROM rag", false},
	{"ragged-topk", "SELECT rk, rv FROM rag ORDER BY rv DESC, rk LIMIT 3", true},
}

// namesRows is the names table under header k,v,K,_1: k and K are one name
// in two cases, and _1 a column named like a positional alias.
var namesRows = [][]string{
	{"1", "10", "2", "a"},
	{"3", "30", "4", "b"},
	{"1", "30", "6", "c"},
}

// quotedBucket holds three 2,000-row tables whose join keys, projected
// columns and filters are named so that only quoting reads them: qa(k,
// "my col", g), qb(k2, "order", v) and qc("from", "w x").
const quotedBucket = "quoted"

func quotedStore(t testing.TB) *store.Store {
	t.Helper()
	st := store.New()
	var a, b, c [][]string
	for i := 0; i < 2000; i++ {
		a = append(a, []string{fmt.Sprint(i), fmt.Sprint(i * 10), fmt.Sprint(i % 7)})
		b = append(b, []string{fmt.Sprint(i % 1000), fmt.Sprint(i), fmt.Sprint(i % 13)})
		c = append(c, []string{fmt.Sprint(i), fmt.Sprint(i % 5)})
	}
	for _, tbl := range []struct {
		name   string
		header []string
		rows   [][]string
	}{{"qa", []string{"k", "my col", "g"}, a}, {"qb", []string{"k2", "order", "v"}, b}, {"qc", []string{"from", "w x"}, c}} {
		if err := PartitionTable(context.Background(), st, quotedBucket, tbl.name, tbl.header, tbl.rows, 4); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// diffLoad builds the shared dataset, deliberately nasty: NULLs (empty CSV
// fields), NaN scores, numeric-looking zip strings that must not round-trip
// as numbers, names containing CSV metacharacters, a ragged table whose
// CSV partitions hold short rows and an over-long one, and two tables whose
// headers test the name rule (names; sig, whose σ is Σ's lowercase and not
// ς's).
func diffLoad(t testing.TB, put s3api.Putter) {
	t.Helper()
	for _, tbl := range diffTables {
		if err := PartitionTableTo(context.Background(), put, diffBucket, tbl.name, tbl.header, tbl.rows, tbl.parts); err != nil {
			t.Fatal(err)
		}
	}
}

// diffTable is one table of the differential dataset, and the partitions
// diffLoad cuts it into.
type diffTable struct {
	name   string
	header []string
	rows   [][]string
	parts  int
}

var diffTables = []diffTable{
	{"p", []string{"pk", "pname", "score", "zip"}, [][]string{
		{"1", "Alice", "90.5", "00501"},
		{"2", "Bob", "NaN", "10001"},
		{"3", `Smith, Al`, "55", "00501"},
		{"4", `O"Hara`, "-12.25", "99999"},
		{"5", "Ann", "", "10001"}, // NULL score
		{"6", "Ada", "10", ""},    // NULL zip
		{"7", "Burt", "60", "10001"},
		{"8", "Cleo", "0", "00501"},
		{"9", "Ava", "NaN", "99999"},
		{"10", "Dan", "33.125", "10001"},
	}, 3},
	{"ord", []string{"ok", "pk", "amount", "tag"}, [][]string{
		{"100", "1", "50", "web"},
		{"101", "1", "149.99", ""},
		{"102", "2", "75", "web"},
		{"103", "3", "20", "store"},
		{"104", "3", "99.5", ""},
		{"105", "5", "10", "store"},
		{"106", "7", "500", "web"},
		{"107", "8", "1", ""},
		{"108", "10", "42", "phone"},
	}, 2},
	{"item", []string{"ik", "ok", "qty"}, [][]string{
		{"1000", "100", "2"},
		{"1001", "100", "1"},
		{"1002", "102", "5"},
		{"1003", "103", "3"},
		{"1004", "106", "9"},
		{"1005", "106", "4"},
		{"1006", "108", "7"},
	}, 2},
	{"rag", []string{"rk", "rname", "rd", "rv"}, [][]string{
		{"1", "ann", "1994-01-01", "10"},
		{"2", "bo"},                              // no rd, no rv: NULL
		{"3", "cy", "1995-02-02", "30", "extra"}, // a cell past the header
		{"4", "dee", "1996-03-03", ""},
		{"5", "eve", "1997-04-04", "50"},
		{"6"},
	}, 2},
	{"names", []string{"k", "v", "K", "_1"}, namesRows, 2},
	{"sig", []string{"σ", "v"}, [][]string{{"1", "2"}, {"3", "4"}}, 2},
}

// TestUnknownColumnRefusedBeforeScan: a planner that read the table's header
// binds the statement to it, so a column the table lacks is refused before
// any partition is read or selected, and nothing is billed for a scan.
func TestUnknownColumnRefusedBeforeScan(t *testing.T) {
	ctx := context.Background()
	st := store.New()
	diffLoad(t, s3api.NewInProc(st))
	counting := s3api.NewCounting(s3api.NewInProc(st))
	db, err := Open(diffBucket, WithBackend("inproc", counting))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex(ctx, "names", "k"); err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{
		"SELECT nosuch FROM names WHERE k > 100",
		"SELECT COUNT(nosuch) FROM names WHERE k > 100",
		"SELECT k FROM names WHERE k > 100 ORDER BY nosuch",
		"SELECT k, COUNT(*) FROM names WHERE k > 100 GROUP BY k ORDER BY SUM(nosuch)",
	} {
		selects, gets := counting.Selects(), counting.Gets()
		_, _, err := db.QueryContext(ctx, sql)
		if !errors.Is(err, expr.ErrUnknownColumn) || s3api.KindOf(err) != s3api.KindBadRequest {
			t.Errorf("%s: err %v, want an unknown column, %q", sql, err, s3api.KindBadRequest)
		}
		if n := counting.Selects() - selects; n != 0 {
			t.Errorf("%s: %d selects reached storage, want none", sql, n)
		}
		// The planner's one GET: the statistics object, or the header.
		if n := counting.Gets() - gets; n > 1 {
			t.Errorf("%s: %d GETs, want at most the planner's one", sql, n)
		}
	}
}

// diffBackends builds the three backend implementations, each seeded with
// the identical dataset and wrapped in a request counter.
func diffBackends(t *testing.T) map[string]*s3api.Counting {
	t.Helper()
	out := map[string]*s3api.Counting{}

	inproc := s3api.NewInProc(store.New())
	diffLoad(t, inproc)
	out["inproc"] = s3api.NewCounting(inproc)

	fs := localfs.New(t.TempDir())
	diffLoad(t, fs)
	out["localfs"] = s3api.NewCounting(fs)

	srv := httptest.NewServer(s3http.NewServer(s3api.NewInProc(store.New())))
	t.Cleanup(srv.Close)
	client := s3http.NewClient(srv.URL, srv.Client())
	diffLoad(t, client)
	out["s3http"] = s3api.NewCounting(client)

	return out
}

// render canonicalizes a relation: exact row order for ordered queries, a
// sorted multiset otherwise (group/join output order is deterministic per
// engine build, but it is not part of the SQL contract).
func render(rel *Relation, ordered bool) string {
	lines := make([]string, len(rel.Rows))
	for i, row := range rel.Rows {
		parts := make([]string, len(row))
		for j, v := range row {
			parts[j] = v.String()
		}
		lines[i] = strings.Join(parts, "|")
	}
	if !ordered {
		sort.Strings(lines)
	}
	return strings.Join(rel.Cols, "|") + "\n" + strings.Join(lines, "\n")
}

func TestDifferentialAcrossBackends(t *testing.T) {
	backends := diffBackends(t)
	// reference[query] = (rendered result, backend that produced it)
	type ref struct{ out, from string }
	reference := map[string]ref{}

	for name, counting := range backends {
		t.Run(name, func(t *testing.T) {
			db, err := Open(diffBucket,
				WithBackend(name, counting),
				WithResultCache(testCacheBudget))
			if err != nil {
				t.Fatal(err)
			}
			var warmHits int64
			for _, q := range diffQueries {
				cold, _, err := db.QueryContext(context.Background(), q.sql)
				if err != nil {
					t.Fatalf("%s (cold): %v", q.name, err)
				}
				coldOut := render(cold, q.ordered)

				selectsBefore := counting.Selects()
				warm, e, err := db.QueryContext(context.Background(), q.sql)
				if err != nil {
					t.Fatalf("%s (warm): %v", q.name, err)
				}
				if warmOut := render(warm, q.ordered); warmOut != coldOut {
					t.Errorf("%s: warm result differs from cold on %s\ncold:\n%s\nwarm:\n%s",
						q.name, name, coldOut, warmOut)
				}
				if d := counting.Selects() - selectsBefore; d != 0 {
					t.Errorf("%s: warm repeat issued %d backend Select requests on %s, want 0", q.name, d, name)
				}
				// Baseline-planned joins scan with plain GETs and owe the
				// select cache nothing, so hits are asserted in aggregate.
				hits, _ := e.Metrics.CacheTotals()
				warmHits += hits

				if r, ok := reference[q.name]; !ok {
					reference[q.name] = ref{out: coldOut, from: name}
				} else if r.out != coldOut {
					t.Errorf("%s: result differs between backends\n%s:\n%s\n%s:\n%s",
						q.name, r.from, r.out, name, coldOut)
				}
			}
			if warmHits == 0 {
				t.Errorf("no warm query on %s was served from the result cache", name)
			}
		})
	}
}

// TestDifferentialIndexedQueries runs index-eligible queries identically
// on all three backends, with the index built through each backend's own
// write path. For every query both the planner-chosen execution and the
// forced IndexScan path (index probe → coalesced multi-range GETs → local
// re-filter) must agree with each other and across backends, and a warm
// planner-path repeat must reach no backend with a Select request — index
// probes are select-cached like any other pushed scan. The dataset is
// deliberately the nasty differential one: NULLs, quoted names, numeric-
// looking strings.
func TestDifferentialIndexedQueries(t *testing.T) {
	ctx := context.Background()
	queries := []struct {
		name, sql, column string
	}{
		{"idx-eq-int", "SELECT pk, pname FROM p WHERE pk = 7", "pk"},
		{"idx-range-int", "SELECT pk, score FROM p WHERE pk <= 4", "pk"},
		{"idx-eq-string", "SELECT pk, pname FROM p WHERE zip = '00501'", "zip"},
		{"idx-residual", "SELECT pk FROM p WHERE pk = 3 AND score >= 10", "pk"},
	}
	type ref struct{ out, from string }
	reference := map[string]ref{}
	for name, counting := range diffBackends(t) {
		t.Run(name, func(t *testing.T) {
			db, err := Open(diffBucket,
				WithBackend(name, counting),
				WithResultCache(testCacheBudget),
				WithScale(cloudsim.Scale{DataRatio: 50000, PartRatio: 8}))
			if err != nil {
				t.Fatal(err)
			}
			for _, col := range []string{"pk", "zip"} {
				if err := db.CreateIndex(ctx, "p", col); err != nil {
					t.Fatalf("CreateIndex(p, %s) on %s: %v", col, name, err)
				}
			}
			for _, q := range queries {
				cold, e, err := db.QueryContext(context.Background(), q.sql)
				if err != nil {
					t.Fatalf("%s (cold): %v", q.name, err)
				}
				coldOut := render(cold, false)
				// The planner saw the index whatever it chose to run.
				if accessOf(e) == nil || e.QueryPlan().Scans[0].Index == nil {
					t.Errorf("%s: no index candidate considered on %s", q.name, name)
				}
				// Forced IndexScan must produce the identical relation.
				forced, fe, err := db.QueryForced(ctx, q.sql, StrategyIndexScan)
				if err != nil {
					t.Fatalf("%s (forced index): %v", q.name, err)
				}
				if col := fe.QueryPlan().Scans[0].Index.Entry.Column; col != q.column {
					t.Errorf("%s: forced IndexScan ran on the index on %s, want %s", q.name, col, q.column)
				}
				gets := accessOf(fe).RangedGets
				if forcedOut := render(forced, false); forcedOut != coldOut {
					t.Errorf("%s: forced IndexScan differs from planned query on %s\nplanned:\n%s\nindex:\n%s",
						q.name, name, coldOut, forcedOut)
				}
				if len(forced.Rows) > 0 && gets == 0 {
					t.Errorf("%s: forced IndexScan issued no multi-range GETs on %s", q.name, name)
				}
				selectsBefore := counting.Selects()
				warm, _, err := db.QueryContext(context.Background(), q.sql)
				if err != nil {
					t.Fatalf("%s (warm): %v", q.name, err)
				}
				if warmOut := render(warm, false); warmOut != coldOut {
					t.Errorf("%s: warm differs from cold on %s", q.name, name)
				}
				if d := counting.Selects() - selectsBefore; d != 0 {
					t.Errorf("%s: warm repeat issued %d Selects on %s, want 0", q.name, d, name)
				}
				if r, ok := reference[q.name]; !ok {
					reference[q.name] = ref{out: coldOut, from: name}
				} else if r.out != coldOut {
					t.Errorf("%s: result differs between backends\n%s:\n%s\n%s:\n%s",
						q.name, r.from, r.out, name, coldOut)
				}
			}
		})
	}
}

// TestDifferentialRaggedTable: a short row reads NULL past its end and an
// over-long row's extra cell is not part of the row, so each filter over
// the ragged table answers byte-identically on every path the planner can
// choose — the pushed scan, the baseline load, the IndexScan and the
// planner's own choice — and so does a join.
func TestDifferentialRaggedTable(t *testing.T) {
	ctx := context.Background()
	st := store.New()
	diffLoad(t, s3api.NewInProc(st))
	filters := []struct{ pred, proj, want string }{
		{"rd > '1994-06-01'", "rk", "rk\n3\n4\n5"},
		{"rk >= 1", "*", "rk|rname|rd|rv\n1|ann|1994-01-01|10\n2|bo||\n3|cy|1995-02-02|30\n4|dee|1996-03-03|\n5|eve|1997-04-04|50\n6|||"},
		{"rv IS NULL", "rk, rname", ""},
		{"rd IS NULL OR rv > 20", "rk, rv", ""},
	}
	db, err := Open(diffBucket, WithBackend("inproc", s3api.NewInProc(st)))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex(ctx, "rag", "rk"); err != nil {
		t.Fatal(err)
	}
	for _, f := range filters {
		sql := "SELECT " + f.proj + " FROM rag WHERE " + f.pred
		planned, _, err := db.QueryContext(ctx, sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		want := render(planned, false)
		if f.want != "" && want != f.want {
			t.Errorf("%s:\n%s\nwant\n%s", sql, want, f.want)
		}
		// The IndexScan reads through rk's index behind an always-true
		// conjunct on it.
		indexed := "SELECT " + f.proj + " FROM rag WHERE rk >= 1 AND (" + f.pred + ")"
		for _, run := range []struct{ strategy, sql string }{
			{StrategyFiltered, sql}, {StrategyBaseline, sql}, {StrategyIndexScan, indexed},
		} {
			rel, _, err := db.QueryForced(ctx, run.sql, run.strategy)
			if err != nil {
				t.Fatalf("forced %s %s: %v", run.strategy, run.sql, err)
			}
			if got := render(rel, false); got != want {
				t.Errorf("forced %s %s:\n%s\nplanned\n%s", run.strategy, run.sql, got, want)
			}
		}
	}
	// An index on rd holds the short row's missing cell as NULL.
	if err := db.CreateIndex(ctx, "rag", "rd"); err != nil {
		t.Fatal(err)
	}
	sql := "SELECT " + filters[0].proj + " FROM rag WHERE " + filters[0].pred
	if rel, _, err := db.QueryForced(ctx, sql, StrategyIndexScan); err != nil || render(rel, false) != filters[0].want {
		t.Errorf("forced IndexScan on rd: %v, %v; want\n%s", rel, err, filters[0].want)
	}
	const joinSQL = "SELECT rk, rname, rd, rv, pk, pname, score, zip FROM rag JOIN p ON rag.rk = p.pk WHERE rd > '1994-06-01'"
	planned, _, err := db.QueryContext(ctx, joinSQL)
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	baseline, err := db.NewExecContext(ctx).Join(JoinSpec{SQL: "SELECT * FROM rag JOIN p ON rag.rk = p.pk WHERE rag.rd > '1994-06-01'"},
		StrategyBaseline)
	if err != nil {
		t.Fatalf("baseline join: %v", err)
	}
	if got, want := render(baseline, false), render(planned, false); got != want || len(planned.Rows) != 3 {
		t.Errorf("baseline join:\n%s\nplanned\n%s", got, want)
	}
}

// TestDifferentialColumnNames: a name denotes one column on every path the
// planner can choose, because storage and server read it by one rule
// (sqlparse.Names): the first header column equal to it case-insensitively,
// else the positional _N, else none. Each statement answers alike — or
// fails alike — planned, forced onto the filtered scan, the baseline load or
// the IndexScan, as a server-side aggregate, and over a columnar copy of
// names. So do joins over names only
// quoting reads (a keyword, a space): planned Bloom and filtered joins that
// project, filter and key on them, and the Bloom and filtered join
// operators, each as the baseline join answers.
func TestDifferentialColumnNames(t *testing.T) {
	ctx := context.Background()
	st := store.New()
	diffLoad(t, s3api.NewInProc(st))
	schema := colformat.Schema{{Name: "k", Kind: value.KindInt}, {Name: "v", Kind: value.KindInt},
		{Name: "K", Kind: value.KindInt}, {Name: "_1", Kind: value.KindString}}
	typed := make([][]value.Value, len(namesRows))
	for i, r := range namesRows {
		for _, c := range r {
			typed[i] = append(typed[i], value.FromCSV(c))
		}
	}
	if err := PartitionTableColumnar(st, diffBucket, "names_col", schema, typed, 2, 1, false); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		tables     []string // the %s of sql
		sql        string
		pred, proj string // its filter form for the IndexScan ("" proj: none)
		agg        string // its aggregate over the loaded table ("" none)
		want       string // the rendered answer, or the error it fails with
	}{
		{tables: []string{"names", "names_col"}, sql: "SELECT k FROM %s WHERE k = 1", pred: "k = 1", proj: "k", want: "k\n1\n1"},
		{tables: []string{"names", "names_col"}, sql: "SELECT k, COUNT(*) AS n FROM %s GROUP BY k", want: "k|n\n1|2\n3|1"},
		{tables: []string{"names", "names_col"}, sql: "SELECT MAX(k) AS m FROM %s", agg: "MAX(k) AS m", want: "m\n3"},
		{tables: []string{"names", "names_col"}, sql: "SELECT _1 FROM %s", proj: "_1", want: "_1\na\nb\nc"},
		{tables: []string{"names", "names_col"}, sql: "SELECT v FROM %s WHERE _2 = 30", pred: "_2 = 30", proj: "v", want: "v\n30\n30"},
		{tables: []string{"sig"}, sql: `SELECT v FROM %s WHERE "Σ" = 1`, pred: `"Σ" = 1`, proj: "v", want: "v\n2"},
		{tables: []string{"sig"}, sql: `SELECT v FROM %s WHERE "ς" = 1`, pred: `"ς" = 1`, proj: "v", want: "unknown column"},
		// A column the table lacks is refused at bind, whether or not a row
		// would have evaluated it, and the caller is told it is theirs to fix.
		{tables: []string{"names", "names_col"}, sql: "SELECT nosuch FROM %s WHERE k > 100", want: "unknown column"},
		{tables: []string{"names", "names_col"}, sql: "SELECT k FROM %s WHERE k < 100 OR nosuch = 1", want: "unknown column"},
		{tables: []string{"names", "names_col"}, sql: "SELECT k, CASE WHEN k > 0 THEN 1 ELSE nosuch END FROM %s", want: "unknown column"},
		{tables: []string{"names", "names_col"}, sql: "SELECT COUNT(nosuch) FROM %s WHERE k > 100", want: "unknown column"},
		{tables: []string{"names", "names_col"}, sql: "SELECT nosuch FROM %s", want: "unknown column"},
		{tables: []string{"names", "names_col"}, sql: "SELECT k FROM %s ORDER BY nosuch", want: "unknown column"},
		{tables: []string{"names", "names_col"}, sql: "SELECT * FROM %s WHERE k > 100 ORDER BY nosuch", want: "unknown column"},
	}
	// The IndexScan's index, and an always-true indexable conjunct on it.
	indexes := map[string]string{"names": "k", "sig": "v"}
	db, err := Open(diffBucket, WithBackend("inproc", s3api.NewInProc(st)))
	if err != nil {
		t.Fatal(err)
	}
	for table, col := range indexes {
		if err := db.CreateIndex(ctx, table, col); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range cases {
		for _, table := range c.tables {
			forced := func(strategy, sql string) func(*Exec) (*Relation, error) {
				return func(*Exec) (*Relation, error) {
					rel, _, err := db.QueryForced(ctx, sql, strategy)
					return rel, err
				}
			}
			sql := fmt.Sprintf(c.sql, table)
			paths := map[string]func(e *Exec) (*Relation, error){
				"planned":  forced("", sql),
				"filtered": forced(StrategyFiltered, sql),
				"baseline": forced(StrategyBaseline, sql),
			}
			if col, ok := indexes[table]; ok && c.proj != "" {
				pred := col + " >= 0"
				if c.pred != "" {
					pred += " AND (" + c.pred + ")"
				}
				paths["index"] = forced(StrategyIndexScan, "SELECT "+c.proj+" FROM "+table+" WHERE "+pred)
			}
			if c.agg != "" {
				paths["server aggregate"] = func(e *Exec) (*Relation, error) {
					rel, err := e.LoadTable("load", 0, table)
					if err != nil {
						return nil, err
					}
					return localRef(rel, "SELECT "+c.agg+" FROM t")
				}
			}
			for path, run := range paths {
				rel, err := run(db.NewExecContext(ctx))
				got := ""
				if err != nil {
					got = err.Error()
				} else {
					got = render(rel, false)
				}
				if ok := got == c.want || (err != nil && strings.Contains(got, c.want)); !ok {
					t.Errorf("%s %s: got\n%s\nwant\n%s", path, fmt.Sprintf(c.sql, table), got, c.want)
				}
				if kind := s3api.KindOf(err); err != nil && path != "server aggregate" && kind != s3api.KindBadRequest {
					t.Errorf("%s %s: error kind %q, want %q", path, fmt.Sprintf(c.sql, table), kind, s3api.KindBadRequest)
				}
			}
		}
	}
	// Joins read such names as well: the planner pushes them as a Bloom
	// join's projections and keys and a filtered join's projection and
	// filter, and Join as its statement names them. Each answers as the
	// baseline join does.
	qst := quotedStore(t)
	pick := func(rel *Relation, cols ...string) string {
		out := &Relation{Cols: cols}
		for _, r := range rel.Rows {
			row := make(Row, len(cols))
			for i, c := range cols {
				row[i] = r[rel.ColIndex(c)]
			}
			out.Rows = append(out.Rows, row)
		}
		return render(out, false)
	}
	db = openOver(t, quotedBucket, qst, WithScale(cloudsim.Scale{DataRatio: 1e3, PartRatio: 8}))
	e := db.NewExecContext(ctx)
	baseline := func(sql string) *Relation {
		rel, err := e.Join(JoinSpec{SQL: sql}, StrategyBaseline)
		if err != nil {
			t.Fatal(err)
		}
		return rel
	}
	lowK := baseline("SELECT * FROM qa a JOIN qb b ON a.k = b.k2 WHERE a.k < 5")
	qc, err := e.LoadTable("load", 0, "qc")
	if err != nil {
		t.Fatal(err)
	}
	if qc, err = localRef(qc, `SELECT * FROM t WHERE "w x" = 1`); err != nil {
		t.Fatal(err)
	}
	chain, err := HashJoin(baseline("SELECT * FROM qa a JOIN qb b ON a.k = b.k2 WHERE a.k < 500"), qc, "order", "from")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		sql        string
		strategies []string
		want       string
	}{
		{`SELECT b."order", a.k FROM qa a JOIN qb b ON a.k = b.k2 WHERE a.k < 5`, []string{StrategyBloom}, pick(lowK, "order", "k")},
		{`SELECT a."my col", b.k2 FROM qa a JOIN qb b ON a.k = b.k2 WHERE a.k < 5`, []string{StrategyBloom}, pick(lowK, "my col", "k2")},
		{`SELECT a.k, b.v FROM qa a JOIN qb b ON a.k = b."order" WHERE a.k < 5`, []string{StrategyBloom},
			pick(baseline(`SELECT * FROM qa a JOIN qb b ON a.k = b."order" WHERE a.k < 5`), "k", "v")},
		{`SELECT a.k, c."w x" FROM qa a JOIN qb b ON a.k = b.k2 JOIN qc c ON b."order" = c."from" WHERE a.k < 500 AND c."w x" = 1`,
			[]string{StrategyBloom, StrategyFiltered}, pick(chain, "k", "w x")},
	} {
		rel, pe, err := db.QueryContext(ctx, c.sql)
		if err != nil {
			t.Errorf("%s: %v", c.sql, err)
			continue
		}
		var strategies []string
		for _, st := range pe.QueryPlan().Steps {
			strategies = append(strategies, st.Strategy)
		}
		if !slices.Equal(strategies, c.strategies) {
			t.Errorf("%s ran %v, want %v", c.sql, strategies, c.strategies)
		}
		if got := pick(rel, rel.Cols...); got != c.want {
			t.Errorf("%s: got\n%s\nthe baseline join answers\n%s", c.sql, got, c.want)
		}
	}
	// A join's unknown column is refused as a single table's is, with
	// rows to evaluate it over or none.
	for _, sql := range []string{
		`SELECT a.nosuch FROM qa a JOIN qb b ON a.k = b.k2 WHERE a.k > 1000`,
		`SELECT nosuch FROM qa a JOIN qb b ON a.k = b.k2`,
		`SELECT a.k FROM qa a JOIN qb b ON a.k = b.k2 WHERE a.nosuch = 1`,
		`SELECT a.k FROM qa a JOIN qb b ON a.k = b.k2 WHERE a.k < 5 ORDER BY nosuch`,
		`SELECT a.k FROM qa a JOIN qb b ON a.k = b.k2 WHERE a.k > 1000 ORDER BY nosuch`,
	} {
		_, _, err := db.QueryContext(ctx, sql)
		if !errors.Is(err, expr.ErrUnknownColumn) || s3api.KindOf(err) != s3api.KindBadRequest {
			t.Errorf("%s: err %v (kind %q), want an unknown column, %q", sql, err, s3api.KindOf(err), s3api.KindBadRequest)
		}
	}
	// The Bloom build side ships k and "my col", the probe side whole rows.
	sql := `SELECT SUM(a."my col") AS s, COUNT(b.v) AS n, SUM(b."order") AS o FROM qa a JOIN qb b ON a.k = b."order" WHERE a."my col" < 50`
	want := baseline(sql).String()
	for _, algo := range []string{StrategyFiltered, StrategyBloom} {
		rel, err := e.Join(JoinSpec{SQL: sql}, algo)
		if err != nil {
			t.Errorf("%s join: %v", algo, err)
		} else if got := rel.String(); got != want {
			t.Errorf("%s join: got\n%s\nthe baseline join answers\n%s", algo, got, want)
		}
	}
}
