package engine

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"pushdowndb/internal/cloudsim"
	"pushdowndb/internal/colformat"
	"pushdowndb/internal/s3api"
	"pushdowndb/internal/scanshare"
	"pushdowndb/internal/selectengine"
	"pushdowndb/internal/sqlparse"
	"pushdowndb/internal/store"
	"pushdowndb/internal/value"
)

// The single-table pushdown battery (pushdown.go): a statement answers the
// same with its tail pushed as on the plain filtered path, whatever the
// cells; a sample that misleads costs a second pass, never the answer; what
// is not pushed says why; and the price decides the rest.

const pushBucket = "push"

// pushScale prices the small tables below as if they were large: at unit
// scale a round trip is all any candidate costs.
var pushScale = WithScale(cloudsim.Scale{DataRatio: 1e6, PartRatio: 8})

// loadPush writes rows as table name: CSV partitions, or colformat ones with
// the given column kinds (empty cells are NULL).
func loadPush(t testing.TB, st *store.Store, name string, header []string, kinds []value.Kind, rows [][]string, parts int, columnar bool) {
	t.Helper()
	if !columnar {
		if err := PartitionTable(context.Background(), st, pushBucket, name, header, rows, parts); err != nil {
			t.Fatal(err)
		}
		return
	}
	schema := make(colformat.Schema, len(header))
	for i, h := range header {
		schema[i] = colformat.ColumnDef{Name: h, Kind: kinds[i]}
	}
	// A colformat row is as wide as its header, as a decoded CSV row is.
	typed := make([][]value.Value, len(rows))
	for i, r := range rows {
		typed[i] = make([]value.Value, len(header))
		for j, f := range r[:min(len(r), len(header))] {
			var err error
			switch {
			case f == "":
			case kinds[j] == value.KindInt:
				typed[i][j], err = value.CastInt(value.Str(f))
			case kinds[j] == value.KindFloat:
				typed[i][j], err = value.CastFloat(value.Str(f))
			default:
				typed[i][j] = value.Str(f)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := PartitionTableColumnar(st, pushBucket, name, schema, typed, parts, 7, true); err != nil {
		t.Fatal(err)
	}
}

var (
	nastyHeader = []string{"id", "name", "score", "zip", "tag", "kind"}
	nastyKinds  = []value.Kind{value.KindInt, value.KindString, value.KindFloat, value.KindString, value.KindString, value.KindString}
)

// nastyRows is the differential dataset grown to a table whose groups repeat:
// NULL (empty) names, scores, zips and tags, NaN, 1e2 and -0 scores, 00501
// beside 501, names and tags holding quotes, commas, % and _, kinds that
// differ in case only.
func nastyRows() [][]string {
	names := []string{"Alice", `O"Hara`, "Smith, Al", "a%b", "x_y", "it's", "", "Bob"}
	scores := []string{"90.5", "NaN", "55", "-12.25", "", "10", "1e2", "0", "-0", "33.125", "60"}
	zips := []string{"00501", "501", "10001", "", "99999"}
	tags := []string{"web", "store", "", "a%", "x_y", "it's", "web"}
	kinds := []string{"x", "X", ""}
	var rows [][]string
	for i := 0; i < 77; i++ {
		rows = append(rows, []string{fmt.Sprint(i + 1), names[i%len(names)], scores[i%len(scores)],
			zips[i%len(zips)], tags[i%len(tags)], kinds[i%len(kinds)]})
	}
	return rows
}

// pushStatements is test (a)'s battery over table %s; pushed is how the
// statement runs when the planner has the statistics object.
var pushStatements = []struct {
	sql     string
	ordered bool
	pushed  string
}{
	// Top-K: descending and ascending, secondary keys, keys the select list
	// drops, expression, alias and ordinal keys, *, with and without WHERE.
	{"SELECT id, score FROM %s WHERE score < 1000 ORDER BY score DESC, id LIMIT 5", true, PushedTopK},
	{"SELECT id FROM %s WHERE score >= -100 ORDER BY score, id LIMIT 6", true, PushedTopK},
	{"SELECT id, score * 2 AS dbl FROM %s WHERE score < 1000 ORDER BY dbl DESC, id LIMIT 5", true, PushedTopK},
	{"SELECT id FROM %s WHERE score < 1000 ORDER BY score + id DESC LIMIT 9", true, PushedTopK},
	{"SELECT * FROM %s WHERE score < 1000 ORDER BY score DESC, id LIMIT 3", true, PushedTopK},
	{"SELECT id, score FROM %s WHERE score < 1000 ORDER BY 2 DESC, 1 LIMIT 4", true, PushedTopK},
	{"SELECT id, zip FROM %s ORDER BY zip DESC, id LIMIT 20", true, PushedTopK},
	{"SELECT id, name FROM %s WHERE name IS NOT NULL ORDER BY name DESC, id LIMIT 12", true, PushedTopK},
	{"SELECT id, tag FROM %s WHERE tag = 'x_y' OR tag LIKE 'a%%' OR tag = 'it''s' ORDER BY tag, id LIMIT 4", true, PushedTopK},
	{"SELECT id, score FROM %s ORDER BY score DESC, id LIMIT 5", true, ""},            // NaN leads
	{"SELECT id, score FROM %s ORDER BY score, id LIMIT 7", true, ""},                 // NULL leads
	{"SELECT id, name FROM %s ORDER BY LOWER(name), id LIMIT 4", true, ""},            // a string function reads CSV text
	{"SELECT id FROM %s WHERE id > 70 ORDER BY id LIMIT 50", true, ""},                // K > rows
	{"SELECT id, score FROM %s WHERE score < 1000 ORDER BY score DESC, id", true, ""}, // no LIMIT
	// Grouped and plain COUNT/MIN/MAX: 0 to 2 keys, the NULL group, ORDER BY
	// an aggregate the select list drops, expressions over aggregates, LIMIT.
	{"SELECT tag, COUNT(*) AS n FROM %s GROUP BY tag", false, PushedGroupBy},
	{"SELECT tag, COUNT(*) AS n, MIN(score) AS lo, MAX(score) AS hi, COUNT(score) AS c FROM %s GROUP BY tag ORDER BY tag", true, PushedGroupBy},
	{"SELECT tag, kind, COUNT(*) AS n, MAX(id) AS last FROM %s WHERE tag IN ('web', 'store') GROUP BY tag, kind ORDER BY n DESC, tag, kind LIMIT 5", true, PushedGroupBy},
	{"SELECT tag FROM %s GROUP BY tag ORDER BY MAX(id) DESC LIMIT 3", true, PushedGroupBy},
	{"SELECT tag, MAX(score) - MIN(score) AS spread, COUNT(*) * 2 AS twice FROM %s WHERE score < 1000 GROUP BY tag ORDER BY tag", true, PushedGroupBy},
	{"SELECT name, MIN(name) AS lo, MAX(score + 1) AS hi FROM %s WHERE name IS NOT NULL GROUP BY name ORDER BY 1", true, PushedGroupBy},
	{"SELECT COUNT(*) AS n, MIN(score) AS lo, MAX(name) AS hi FROM %s WHERE id > 3", false, PushedGroupBy},
	{"SELECT COUNT(*) AS n, MAX(score) AS hi FROM %s WHERE id > 1000000", false, ""}, // nothing passes: nothing to save
	{"SELECT COUNT(*) FROM %s", false, PushedGroupBy},
	{"SELECT zip, COUNT(*) AS n FROM %s GROUP BY zip ORDER BY zip", true, ""},          // numeric keys
	{"SELECT tag, SUM(score) AS s FROM %s WHERE score < 1000 GROUP BY tag", false, ""}, // SUM
	{"SELECT tag, COUNT(*) AS n FROM %s WHERE id < 9 GROUP BY tag", false, ""},         // singletons
}

// queryOrErr renders a statement's answer, or its error: two paths that both
// fail agree, whatever the wording.
func queryOrErr(db *DB, sql string, ordered bool) (string, *Exec) {
	rel, e, err := db.QueryContext(context.Background(), sql)
	if err != nil {
		return "error", e
	}
	return render(rel, ordered), e
}

func TestPushdownDifferential(t *testing.T) {
	for _, columnar := range []bool{false, true} {
		with, without := store.New(), store.New()
		for _, st := range []*store.Store{with, without} {
			loadPush(t, st, "n", nastyHeader, nastyKinds, nastyRows(), 3, columnar)
		}
		dropStats(without, pushBucket, "n")
		dbWith := openOver(t, pushBucket, with, pushScale)
		// Every eligible tail runs pushed: the price is test (d)'s subject.
		dbWith.Cfg.S3NodeSecPerRow = 0
		dbWithout := openOver(t, pushBucket, without, pushScale)
		for _, q := range pushStatements {
			what := fmt.Sprintf("columnar=%v %q", columnar, q.sql)
			sql := fmt.Sprintf(q.sql, "n")
			got, e := queryOrErr(dbWith, sql, q.ordered)
			want, plain := queryOrErr(dbWithout, sql, q.ordered)
			if got != want || got == "error" {
				t.Errorf("%s: answers differ\nwith the statistics object:\n%s\nwithout:\n%s", what, got, want)
			}
			ap := accessOf(e)
			if pushed := ""; ap != nil && ap.Fallback == "" {
				if pushed = ap.Pushed; pushed != q.pushed {
					t.Errorf("%s: ran with %q pushed, want %q\n%s", what, pushed, q.pushed, e.QueryPlan())
				}
			}
			// Without the object only a plain aggregation is pushed: it
			// needs no sample.
			if pa := accessOf(plain); pa != nil && pa.Pushed != "" && strings.Contains(sql, "GROUP BY") {
				t.Errorf("%s: pushed %q without a statistics object", what, pa.Pushed)
			}
			if strings.Contains(plain.Metrics.Report(), "plan ") {
				t.Errorf("%s: planning without an object left a phase:\n%s", what, plain.Metrics.Report())
			}
		}
	}
}

// offStride builds a table over 2048 rows whose statistics sample, rows 0,
// 2, 4, ..., never meets what sits on the odd rows: one row of a rare group,
// and every one of the ten best scores.
func offStride(t testing.TB, columnar bool) *store.Store {
	var rows [][]string
	for i := 0; i < 3000; i++ {
		g, score := fmt.Sprintf("g%d", i/2%6), fmt.Sprint(i%500)
		switch {
		case i == 1501:
			g = "rare"
		case i%300 == 1:
			score = fmt.Sprint(1000 + i)
		}
		rows = append(rows, []string{fmt.Sprint(i), g, score})
	}
	st := store.New()
	loadPush(t, st, "s", []string{"id", "g", "score"}, []value.Kind{value.KindInt, value.KindString, value.KindInt}, rows, 4, columnar)
	return st
}

// TestPushdownGuards is test (b): the checks fire, and the answers stand.
func TestPushdownGuards(t *testing.T) {
	const (
		grouped = "SELECT g, COUNT(*) AS n, MAX(score) AS hi FROM s GROUP BY g ORDER BY g"
		topK    = "SELECT id, score FROM s ORDER BY score DESC, id LIMIT 10"
	)
	for _, columnar := range []bool{false, true} {
		st := offStride(t, columnar)
		db := openOver(t, pushBucket, st, pushScale)
		without := offStride(t, columnar)
		dropStats(without, pushBucket, "s")
		plain := openOver(t, pushBucket, without, pushScale)
		answer := func(db *DB, sql string) (string, *AccessPlan, *Exec) {
			t.Helper()
			rel, e, err := db.QueryContext(context.Background(), sql)
			if err != nil {
				t.Fatalf("columnar=%v %q: %v", columnar, sql, err)
			}
			return render(rel, true), accessOf(e), e
		}

		// The rare group is missed, the guard reads others > 0, the statement
		// reruns on the filtered path and is right.
		want, _, _ := answer(plain, grouped)
		got, ap, e := answer(db, grouped)
		if ap.Pushed != PushedGroupBy || ap.Fallback != FallbackGroupsMissed || !strings.HasPrefix(ap.Sample, "6 groups") {
			t.Errorf("columnar=%v: the rare group should fail the guard as groups_missed:\n%s", columnar, e.QueryPlan())
		}
		if got != want || !strings.Contains(got, "rare|1|") {
			t.Errorf("columnar=%v: after the fallback\n%s\nwant\n%s", columnar, got, want)
		}
		if rep := e.Metrics.Report(); !strings.Contains(rep, "s3 aggregate") || !strings.Contains(rep, "scan s") {
			t.Errorf("columnar=%v: a fallback bills the wasted pass and the rerun:\n%s", columnar, rep)
		}

		// The whole top 10 sits off the stride: the threshold is low, admits
		// at least K rows all the same, and the answer is right.
		want, _, _ = answer(plain, topK)
		got, ap, e = answer(db, topK)
		if ap.Pushed != PushedTopK || ap.Fallback != "" || ap.Sample != "threshold 496 from the sample" || ap.ActualRows < 10 {
			t.Errorf("columnar=%v: top-K over an unlucky sample:\n%s", columnar, e.QueryPlan())
		}
		if got != want || !strings.HasPrefix(got, "id|score\n2701|3701\n") {
			t.Errorf("columnar=%v: top-K\n%s\nwant\n%s", columnar, got, want)
		}
	}

	// A partition overwritten at equal size — the stamps still match — so
	// that fewer than K rows pass the sample's threshold: rerun unthresholded.
	st := offStride(t, false)
	db := openOver(t, pushBucket, st, pushScale)
	for _, key := range st.TableParts(pushBucket, "s") {
		data, _ := st.Get(pushBucket, key)
		lines := strings.SplitAfter(string(data), "\n")
		for i, line := range lines[1:] {
			if f := strings.Split(strings.TrimSuffix(line, "\n"), ","); len(f) == 3 {
				lines[i+1] = fmt.Sprintf("%s,%s,%s\n", f[0], f[1], strings.Repeat("1", len(f[2])))
			}
		}
		st.Put(pushBucket, key, []byte(strings.Join(lines, "")))
	}
	rel, e, err := db.QueryContext(context.Background(), topK)
	if err != nil {
		t.Fatal(err)
	}
	if ap := accessOf(e); ap.Fallback != FallbackShortThreshold || len(rel.Rows) != 10 || rel.Rows[0][1].String() != "1111" {
		t.Errorf("stale content: %d rows, first %v\n%s", len(rel.Rows), rel.Rows[0], e.QueryPlan())
	}
}

// TestPushdownGuardCatchesOverlap: two sampled groups whose predicates match
// the same rows do not add up to COUNT(*). No table the planner accepts does
// this — numeric-looking keys are refused — so the request is forged.
func TestPushdownGuardCatchesOverlap(t *testing.T) {
	st := store.New()
	loadPush(t, st, "z", []string{"zip"}, nil, [][]string{{"00501"}, {"501"}, {"00501"}, {"501"}}, 1, false)
	db := openOver(t, pushBucket, st)
	sel := mustParse(t, "SELECT zip, COUNT(*) AS n FROM z GROUP BY zip")
	ap := &AccessPlan{Pushed: PushedGroupBy, push: db.groupPush(sel, []Row{{value.Str("00501")}, {value.Str("501")}})}
	rel, err := db.NewExec().runTail(sel, ap, nil)
	if err != nil || rel != nil || ap.Fallback != FallbackGroupsOverlap {
		t.Fatalf("two groups matching the same four rows: relation %v, error %v, fallback %q", rel, err, ap.Fallback)
	}
}

// TestPushdownEligibility is test (c): each statement plans filtered and says
// why in EXPLAIN.
func TestPushdownEligibility(t *testing.T) {
	st := store.New()
	loadPush(t, st, "n", nastyHeader, nastyKinds, nastyRows(), 3, false)
	var wide [][]string
	for i := 0; i < 2000; i++ {
		wide = append(wide, []string{fmt.Sprint(i), strings.Repeat("k", 300) + fmt.Sprint(i%900)})
	}
	loadPush(t, st, "w", []string{"id", "k"}, nil, wide, 2, false)
	// Numbers beside text: 9 < 10 as numbers, 10 < 5x and 5x < 9 as text.
	var mixed [][]string
	for i := 0; i < 30; i++ {
		mixed = append(mixed, []string{fmt.Sprint(i), []string{"9", "5x", "10"}[i%3], []string{"u", "v"}[i%2]})
	}
	loadPush(t, st, "m", []string{"id", "c", "g"}, nil, mixed, 2, false)
	db := openOver(t, pushBucket, st, pushScale)
	for _, c := range []struct {
		sql, why    string
		explainOnly bool // the statement is an error to run, on any path
	}{
		{sql: "SELECT zip, COUNT(*) AS n FROM n GROUP BY zip", why: `key value zip = "501" reads as a number`},
		{sql: "SELECT tag, COUNT(*) AS n FROM n WHERE id < 9 GROUP BY tag", why: "is in the sample once"},
		{sql: "SELECT tag, SUM(score) AS s FROM n GROUP BY tag", why: "SUM(score): a float partial sum rounds once per partition"},
		{sql: "SELECT tag, AVG(score) AS s FROM n GROUP BY tag", why: "AVG(score): a float partial sum"},
		{sql: "SELECT id FROM n ORDER BY score, id LIMIT 7", why: `"" is among the sample's 7 best keys`},
		{sql: "SELECT id FROM n ORDER BY score DESC, id LIMIT 7", why: `"NaN" is among the sample's 7 best keys`},
		{sql: "SELECT id FROM n WHERE id > 70 ORDER BY id LIMIT 50", why: "LIMIT 50 is more than the 7 sample rows the filter keeps"},
		{sql: "SELECT k, COUNT(*) AS n FROM w GROUP BY k", why: "bytes, over the 262144-byte expression limit"},
		{sql: "SELECT tag, name FROM n GROUP BY tag", why: "name is read outside an aggregate and is not a GROUP BY key", explainOnly: true},
		{sql: "SELECT tag, COUNT(*) AS n FROM n GROUP BY tag LIMIT 2", why: "LIMIT without ORDER BY"},
		{sql: "SELECT UPPER(tag) AS u, COUNT(*) AS n FROM n GROUP BY UPPER(tag)", why: "is not a bare column", explainOnly: true},
		{sql: "SELECT id FROM n ORDER BY LOWER(name), id LIMIT 3", why: "more than columns and arithmetic"},
		{sql: "SELECT id, c FROM m ORDER BY c DESC LIMIT 1", why: "c mixes numbers, dates and text in the sample"},
		{sql: "SELECT id FROM m WHERE id < 20 ORDER BY g, c, id LIMIT 4", why: "c mixes numbers, dates and text in the sample"},
		{sql: "SELECT g, COUNT(*) AS n, MAX(c) AS hi FROM m GROUP BY g", why: "c mixes numbers, dates and text in the sample"},
		{sql: "SELECT MIN(c) AS lo, COUNT(c) AS n FROM m", why: "c mixes numbers, dates and text in the sample"},
	} {
		text, err := explain(context.Background(), db, c.sql)
		if err != nil {
			t.Fatalf("%q: %v", c.sql, err)
		}
		if !strings.Contains(text, "not pushed beyond selection + projection: ") || !strings.Contains(text, c.why) ||
			!strings.Contains(text, "S3 Select (selection+projection pushdown)") {
			t.Errorf("%q: EXPLAIN should plan the filtered scan and say %q:\n%s", c.sql, c.why, text)
		}
		if c.explainOnly {
			continue
		}
		_, e, err := db.QueryContext(context.Background(), c.sql)
		if err != nil {
			t.Fatalf("%q: %v", c.sql, err)
		}
		if ap := accessOf(e); ap != nil && (ap.Strategy != StrategyFiltered || ap.Pushed != "") {
			t.Errorf("%q ran as\n%s", c.sql, e.QueryPlan())
		}
	}
}

// TestPushdownUnderSharing: under a scan-sharing window a grouped statement
// keeps its plain scan — the one request that batches with other clients'
// scans of the table — and reads no statistics object to decide so; a
// thresholded top-K is a scan like any other and is still pushed.
func TestPushdownUnderSharing(t *testing.T) {
	st := store.New()
	loadPush(t, st, "n", nastyHeader, nastyKinds, nastyRows(), 3, false)
	for _, window := range []time.Duration{0, -1} {
		db := openOver(t, pushBucket, st, pushScale, WithScanSharing(scanshare.Config{Window: window}))
		db.Cfg.S3NodeSecPerRow = 0 // every eligible tail runs pushed
		batches := window >= 0
		for _, sql := range []string{"SELECT tag, COUNT(*) AS n FROM n GROUP BY tag ORDER BY tag", "SELECT COUNT(*) FROM n"} {
			text, err := explain(context.Background(), db, sql)
			if err != nil {
				t.Fatal(err)
			}
			if batches != strings.Contains(text, "not pushed beyond selection + projection: a scan-sharing window is open") {
				t.Errorf("window %v, EXPLAIN %q:\n%s", window, sql, text)
			}
			_, e, err := db.QueryContext(context.Background(), sql)
			if err != nil {
				t.Fatal(err)
			}
			if batches != (accessOf(e) == nil) || batches == strings.Contains(e.Metrics.Report(), "s3 aggregate") {
				t.Errorf("window %v, %q ran as\n%s\n%s", window, sql, e.QueryPlan(), e.Metrics.Report())
			}
		}
		_, e, err := db.QueryContext(context.Background(), "SELECT id, score FROM n WHERE score < 1000 ORDER BY score DESC, id LIMIT 5")
		if err != nil {
			t.Fatal(err)
		}
		if ap := accessOf(e); ap == nil || ap.Pushed != PushedTopK {
			t.Errorf("window %v: top-K ran as\n%s", window, e.QueryPlan())
		}
	}
}

// TestPushdownChoice is test (d)'s synthetic half: the price, not the shape,
// decides. Few groups push; many make the request's expression work dwarf the
// rows it saves; an unscaled table of a few rows is a round trip either way.
func TestPushdownChoice(t *testing.T) {
	var rows [][]string
	for i := 0; i < 6000; i++ {
		rows = append(rows, []string{fmt.Sprint(i), fmt.Sprintf("few-%d", i%5), fmt.Sprintf("many-%d", i%400)})
	}
	for _, columnar := range []bool{false, true} {
		st := store.New()
		loadPush(t, st, "g", []string{"id", "few", "many"}, []value.Kind{value.KindInt, value.KindString, value.KindString}, rows, 4, columnar)
		db := openOver(t, pushBucket, st, pushScale)
		for _, c := range []struct {
			key    string
			pushed string
		}{{"few", PushedGroupBy}, {"many", ""}} {
			sql := fmt.Sprintf("SELECT %s, COUNT(*) AS n, MAX(id) AS hi FROM g GROUP BY %s ORDER BY %s", c.key, c.key, c.key)
			_, e, err := db.QueryContext(context.Background(), sql)
			if err != nil {
				t.Fatal(err)
			}
			ap := accessOf(e)
			pushedCheaper := ap.Estimates[PushedGroupBy].Cheaper(ap.Estimates[StrategyFiltered])
			if ap.Pushed != c.pushed || pushedCheaper != (c.pushed != "") || len(ap.Estimates) != 2 {
				t.Errorf("columnar=%v GROUP BY %s: pushed %q\n%s", columnar, c.key, ap.Pushed, e.QueryPlan())
			}
		}
		unscaled := openOver(t, pushBucket, st)
		if _, e, err := unscaled.QueryContext(context.Background(), "SELECT few, COUNT(*) AS n FROM g GROUP BY few"); err != nil || accessOf(e).Pushed != "" {
			t.Errorf("columnar=%v: at unit scale the request's expression work outweighs 6000 rows: %v\n%s", columnar, err, e.QueryPlan())
		}
	}
}

// TestPushedProjection is the projection satellite: columns only WHERE reads
// stay on the storage side, and a statement that names no * never pushes one.
func TestPushedProjection(t *testing.T) {
	for sql, want := range map[string]string{
		"SELECT a, SUM(b) FROM t WHERE c > 1 AND a < 5 GROUP BY a ORDER BY d": "SELECT a, b, d FROM S3Object WHERE ((c > 1) AND (a < 5))",
		"SELECT COUNT(*) FROM t WHERE c > 1":                                  "SELECT 1 FROM S3Object WHERE (c > 1)",
		"SELECT SUM(1) FROM t":                                                "SELECT 1 FROM S3Object",
		"SELECT *, a + 1 FROM t WHERE c > 1 ORDER BY b":                       "SELECT * FROM S3Object WHERE (c > 1)",
		"SELECT a AS x FROM t WHERE c > 1 ORDER BY x":                         "SELECT a FROM S3Object WHERE (c > 1)",
		"SELECT a FROM t WHERE c > 1 LIMIT 3":                                 "SELECT a FROM S3Object WHERE (c > 1) LIMIT 3",
	} {
		if got := pushedScan(mustParse(t, sql), nil).String(); got != want {
			t.Errorf("%s\npushes %s\nwant   %s", sql, got, want)
		}
	}

	// A constant per row finishes like any scan.
	st := store.New()
	loadPush(t, st, "n", nastyHeader, nastyKinds, nastyRows(), 3, false)
	db := openOver(t, pushBucket, st)
	rel, e, err := db.QueryContext(context.Background(), "SELECT COUNT(*) AS n, SUM(2) AS s FROM n WHERE id > 7")
	if err != nil {
		t.Fatal(err)
	}
	if got := render(rel, true); got != "n|s\n70|140" || !strings.Contains(e.Metrics.Report(), "scan n") {
		t.Errorf("%s\n%s", got, e.Metrics.Report())
	}

	// A * beside other items is pushed as one *: the server-side projection
	// expands it and evaluates the rest, so the pushed scan — plain, and
	// behind a top-K threshold — answers column for column what the baseline
	// load of whole rows answers.
	db = openOver(t, pushBucket, st, pushScale)
	for _, sql := range []string{
		"SELECT *, id + 1 AS nxt FROM n WHERE id > 70 ORDER BY score, id",
		"SELECT *, id + 1 AS nxt FROM n WHERE score < 1000 ORDER BY score DESC, id LIMIT 4",
		"SELECT id * 2 AS dbl, * FROM n WHERE id > 70 ORDER BY id DESC LIMIT 3",
	} {
		sel := mustParse(t, sql)
		e := db.NewExec()
		rows, _, err := e.serverSideFilter(Load{Table: "n", Where: sel.Where}, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := e.finishTail(sel, rows, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, e, err := db.QueryContext(context.Background(), sql)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Cols) != len(nastyHeader)+1 || render(got, true) != render(want, true) {
			t.Errorf("%q\npushed:\n%s\nbaseline:\n%s", sql, render(got, true), render(want, true))
		}
		if limited := sel.Limit >= 0; limited != (accessOf(e) != nil && accessOf(e).Pushed == PushedTopK) {
			t.Errorf("%q ran as\n%s", sql, e.QueryPlan())
		}
	}
}

func mustParse(t testing.TB, sql string) *sqlparse.Select {
	t.Helper()
	sel, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	return sel
}

// TestRowGroupPruningSeesConjuncts: a threshold ANDed onto a filter prunes
// row groups like a threshold alone. Over a colformat table sorted on the
// order key the thresholded top-K inflates the last row groups only; over one
// whose every row group holds a best price nothing moves.
func TestRowGroupPruningSeesConjuncts(t *testing.T) {
	build := func(sorted bool) *store.Store {
		var rows [][]string
		for i := 0; i < 3990; i++ {
			price := i
			if !sorted && i%7 == 3 {
				price = 100000
			}
			rows = append(rows, []string{fmt.Sprint(i), fmt.Sprint(price), fmt.Sprint(i % 9)})
		}
		st := store.New()
		// loadPush cuts row groups of 7 rows.
		loadPush(t, st, "c", []string{"id", "price", "q"}, []value.Kind{value.KindInt, value.KindInt, value.KindInt}, rows, 1, true)
		return st
	}
	const sql = "SELECT id, price FROM c WHERE q < 8 ORDER BY price DESC LIMIT 5"
	scanned := func(st *store.Store) (answer string, stats selectengine.Stats, ap *AccessPlan) {
		counting := s3api.NewCounting(s3api.NewInProc(st))
		db, err := Open(pushBucket, WithBackend("s3sim", statsOf{counting, &stats}), pushScale)
		if err != nil {
			t.Fatal(err)
		}
		rel, e, err := db.QueryContext(context.Background(), sql)
		if err != nil {
			t.Fatal(err)
		}
		return render(rel, true), stats, accessOf(e)
	}
	for _, sorted := range []bool{true, false} {
		with, without := build(sorted), build(sorted)
		dropStats(without, pushBucket, "c")
		want, full, _ := scanned(without)
		got, thresholded, ap := scanned(with)
		if got != want || ap.Pushed != PushedTopK {
			t.Fatalf("sorted=%v: %s\nwant %s\n%+v", sorted, got, want, ap)
		}
		if sorted && (thresholded.DecompressBytes*20 > full.DecompressBytes || thresholded.BytesScanned*20 > full.BytesScanned) {
			t.Errorf("sorted on the key: the thresholded scan read %+v, the plain one %+v: only the last row groups should be inflated", thresholded, full)
		}
		if !sorted && (thresholded.DecompressBytes != full.DecompressBytes || thresholded.BytesScanned != full.BytesScanned) {
			t.Errorf("unsorted: the thresholded scan read %+v, the plain one %+v: nothing can be pruned", thresholded, full)
		}
	}
}

// statsOf sums what the backend's Selects consumed.
type statsOf struct {
	s3api.Backend
	sum *selectengine.Stats
}

func (b statsOf) Select(ctx context.Context, bucket, key string, req selectengine.Request) (*selectengine.Result, error) {
	res, err := b.Backend.Select(ctx, bucket, key, req)
	if err == nil {
		b.sum.BytesScanned += res.Stats.BytesScanned
		b.sum.DecompressBytes += res.Stats.DecompressBytes
	}
	return res, err
}

// TestOrderByOrdinal is the ordinal satellite: ORDER BY 3 DESC sorts by the
// third select item, not by the constant 3.
func TestOrderByOrdinal(t *testing.T) {
	st := store.New()
	loadPush(t, st, "n", nastyHeader, nastyKinds, nastyRows(), 3, false)
	db := openOver(t, pushBucket, st)
	rel, _, err := db.QueryContext(context.Background(), "SELECT tag, name, COUNT(*) FROM n WHERE tag IS NOT NULL GROUP BY tag, name ORDER BY 3 DESC, 1, 2 LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	if got := render(rel, true); got != "tag|name|COUNT(*)\nweb||4\nweb|Alice|3\nweb|Bob|3" {
		t.Errorf("ORDER BY 3 DESC, 1, 2:\n%s", got)
	}
	rel, _, err = db.QueryContext(context.Background(), "SELECT id, score * 2 FROM n WHERE score < 50 ORDER BY 2 DESC, 1 LIMIT 2")
	if err != nil {
		t.Fatal(err)
	}
	if got := render(rel, true); got != "id|(score * 2)\n10|66.25\n21|66.25" {
		t.Errorf("ORDER BY 2 DESC, 1:\n%s", got)
	}
	for _, bad := range []string{
		"SELECT id FROM n ORDER BY 2", "SELECT id FROM n ORDER BY 0", "SELECT id FROM n ORDER BY 'id'",
		"SELECT id FROM n ORDER BY 1 + 1", "SELECT * FROM n ORDER BY 1", "SELECT id FROM n ORDER BY NULL",
	} {
		if _, _, err := db.QueryContext(context.Background(), bad); err == nil || !strings.Contains(err.Error(), "ORDER BY") {
			t.Errorf("%q: error %v, want the ORDER BY key refused", bad, err)
		}
	}
}

// fuzzCells is FuzzSingleTablePushdown's alphabet for each column of
// nastyHeader after id: one hostile set for all of them — NULL, zeros that
// differ in text only, floats that read as integers, NaN, case twins, LIKE
// metacharacters, a quote, dates, and 9, 10, 5x, which no comparison orders
// (9 < 10 as numbers, 10 < 5x and 5x < 9 as text) — then that column's cells
// of the differential dataset. A column that mixes numbers, dates and text
// must plan filtered: storage compares a CSV cell as text where the server
// compares the typed cell it decodes.
var fuzzCells = func() [][]string {
	hostile := []string{"", "0", "00", "1.0", "1e0", "-0", "NaN", "a", "A", "a%", "x_y", "'", "1994-01-01", "1998-12-01", "9", "10", "5x"}
	cells := make([][]string, len(nastyHeader)-1)
	for c := range cells {
		cells[c] = slices.Clone(hostile)
		for _, r := range nastyRows() {
			if !slices.Contains(cells[c], r[c+1]) {
				cells[c] = append(cells[c], r[c+1])
			}
		}
	}
	return cells
}()

// fuzzInput encodes a table over nastyHeader — id is the row number, every
// other cell one byte indexing its column's fuzzCells — behind two bytes
// choosing the layout (partitions, format) and the statement.
// A row may be ragged: endRow ends it before its column, and the last cell's
// byte with pastHeader set adds a cell past the header.
func fuzzInput(layout, statement byte, rows [][]string) []byte {
	data := []byte{layout, statement}
	for _, r := range rows {
		for c := range fuzzCells {
			if c+1 >= len(r) {
				data = append(data, endRow)
				continue
			}
			b := byte(slices.Index(fuzzCells[c], r[c+1]))
			if c == len(fuzzCells)-1 && len(r) > len(nastyHeader) {
				b |= pastHeader
			}
			data = append(data, b)
		}
	}
	return data
}

const endRow, pastHeader = 0xff, 0x80

// FuzzSingleTablePushdown: bytes become a table of at most 300 rows of hostile
// cells in 1 to 3 partitions, CSV or colformat, and one statement of test
// (a)'s battery; the answer planned with the statistics object, and for a
// top-K statement SamplingTopK's at a sample size the last byte chooses, must
// be the answer planned without it. An error on the plain path excuses the statement
// (a threshold may spare the server the row its projection chokes on); a
// panic, a difference, or an input that costs over 64 MiB is a finding.
func FuzzSingleTablePushdown(f *testing.F) {
	pair := [][]string{{"1", "a", "0", "00501", "web", "x"}, {"2", "a", "00", "501", "web", "x"},
		{"3", "a", "1.0", "00501", "web", "X"}, {"4", "a", "1e0", "501", "web", "X"}}
	cycle := [][]string{{"1", "a", "9", "9", "web", "x"}, {"2", "a", "5x", "5x", "web", "x"}, {"3", "a", "10", "10", "web", "x"},
		{"4", "a", "1998-12-01", "9", "web", "x"}}
	ragged := [][]string{{"1", "a", "0", "00501", "web", "x"}, {"2", "a"}, {"3", "a", "1.0", "00501", "web", "X", "extra"},
		{"4"}, {"5", "A", "9", "501", "web", "x"}}
	for q := range pushStatements {
		f.Add(fuzzInput(byte(q), byte(q), nastyRows()))
		f.Add(fuzzInput(byte(q+3), byte(q), pair))
		f.Add(fuzzInput(byte(q), byte(q), cycle))
		f.Add(fuzzInput(byte(q), byte(q), ragged))
		f.Add(fuzzInput(byte(q+3), byte(q), ragged))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		parts, columnar := 1+int(data[0]%3), data[0]/3%2 == 1
		q := pushStatements[int(data[1])%len(pushStatements)]
		var rows [][]string
		for cells := data[2:]; len(cells) >= 5 && len(rows) < 300; cells = cells[5:] {
			r := []string{fmt.Sprint(len(rows) + 1)}
			for c, b := range cells[:5] {
				if b == endRow {
					break
				}
				r = append(r, fuzzCells[c][int(b&^pastHeader)%len(fuzzCells[c])])
			}
			if len(r) == len(nastyHeader) && cells[4]&pastHeader != 0 {
				r = append(r, "extra")
			}
			rows = append(rows, r)
		}
		if len(rows) == 0 {
			return
		}
		// A colformat column is typed: a float one where every cell reads
		// as a float, text otherwise.
		kinds := slices.Clone(nastyKinds)
		for _, r := range rows {
			for c, cell := range r[:min(len(r), len(kinds))] {
				if _, err := value.CastFloat(value.Str(cell)); err != nil && c > 0 && cell != "" {
					kinds[c] = value.KindString
				}
			}
		}
		st := store.New()
		loadPush(t, st, "n", nastyHeader, kinds, rows, parts, columnar)
		sql := fmt.Sprintf(q.sql, "n")
		db := openOver(t, pushBucket, st, pushScale)
		db.Cfg.S3NodeSecPerRow = 0 // every eligible tail runs pushed
		got, e := queryOrErr(db, sql, q.ordered)
		// A top-K statement also runs by hand, sampling the S first rows of
		// the table's, S a cell byte (0: S*).
		sampled, se, sample := "", db.NewExec(), int64(data[len(data)-1])%64
		if kind, _ := db.pushableShape(mustParse(t, sql)); kind == PushedTopK {
			rel, err := se.SamplingTopK(sql, sample)
			sampled = "error"
			if err == nil {
				sampled = render(rel, q.ordered)
			}
		}
		dropStats(st, pushBucket, "n")
		want, _ := queryOrErr(openOver(t, pushBucket, st, pushScale), sql, q.ordered)
		if want != "error" && got != want {
			t.Fatalf("%q over %d rows in %d partitions, columnar=%v\nwith the statistics object:\n%s\nwithout:\n%s\n%s",
				sql, len(rows), parts, columnar, got, want, e.QueryPlan())
		}
		if want != "error" && sampled != "" && sampled != want {
			t.Fatalf("%q over %d rows in %d partitions, columnar=%v\nsampling %d rows:\n%s\nwithout the statistics object:\n%s\n%s",
				sql, len(rows), parts, columnar, sample, sampled, want, se.QueryPlan())
		}
		runtime.ReadMemStats(&after)
		if mb := (after.TotalAlloc - before.TotalAlloc) >> 20; mb > 64 {
			t.Fatalf("%q over %d rows allocated %d MiB", sql, len(rows), mb)
		}
	})
}
