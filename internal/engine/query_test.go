package engine

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"pushdowndb/internal/s3api"
	"pushdowndb/internal/store"
)

func TestQueryFullPushdown(t *testing.T) {
	db, _ := newTestDB(t)
	rel, e, err := db.QueryContext(context.Background(), "SELECT k, v FROM events WHERE v <= -45 LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	if len(rel.Rows) > 5 {
		t.Fatalf("limit not applied: %d rows", len(rel.Rows))
	}
	if len(rel.Cols) != 2 {
		t.Fatalf("cols = %v", rel.Cols)
	}
	// Fully pushed: returned bytes should be tiny vs the table.
	_, _, returned, get := e.Metrics.Totals()
	if get != 0 {
		t.Error("full pushdown should not use plain GETs")
	}
	if returned > 2000 {
		t.Errorf("returned %d bytes, expected a handful of rows", returned)
	}
}

func TestQueryGroupByOrderBy(t *testing.T) {
	db, _ := newTestDB(t)
	rel, _, err := db.QueryContext(context.Background(), "SELECT g, SUM(v) AS total, COUNT(*) AS n FROM events GROUP BY g ORDER BY g")
	if err != nil {
		t.Fatal(err)
	}
	if len(rel.Rows) != 10 {
		t.Fatalf("groups = %d", len(rel.Rows))
	}
	// ORDER BY g ascending.
	for i := 1; i < len(rel.Rows); i++ {
		a, _ := rel.Rows[i-1][0].IntNum()
		b, _ := rel.Rows[i][0].IntNum()
		if a > b {
			t.Fatal("not sorted")
		}
	}
	// Cross-check against the server-side group-by.
	want := forcedRel(t, db, StrategyBaseline, groupSQL("events", "g"))
	if len(want.Rows) != len(rel.Rows) {
		t.Fatalf("row count mismatch vs the server-side group-by")
	}
}

func TestQueryAggregateOnly(t *testing.T) {
	db, _ := newTestDB(t)
	rel, _, err := db.QueryContext(context.Background(), "SELECT COUNT(*) AS n, MIN(v) AS mn FROM events WHERE g = 3")
	if err != nil {
		t.Fatal(err)
	}
	if len(rel.Rows) != 1 || mustInt(rel.Rows[0][0]) <= 0 {
		t.Fatalf("agg result = %v", rel)
	}
}

func TestQueryOrderByAlias(t *testing.T) {
	db, _ := newTestDB(t)
	rel, _, err := db.QueryContext(context.Background(), "SELECT g, SUM(v) AS total FROM events GROUP BY g ORDER BY total DESC LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	if len(rel.Rows) != 3 {
		t.Fatalf("rows = %d", len(rel.Rows))
	}
	a, _ := rel.Rows[0][1].Num()
	b, _ := rel.Rows[2][1].Num()
	if a < b {
		t.Error("not sorted by alias desc")
	}
}

func TestQueryErrors(t *testing.T) {
	db, _ := newTestDB(t)
	if _, _, err := db.QueryContext(context.Background(), "not sql"); err == nil {
		t.Error("bad sql should error")
	}
	if _, _, err := db.QueryContext(context.Background(), "SELECT x FROM nosuchtable"); err == nil {
		t.Error("missing table should error")
	}
}

func TestExplain(t *testing.T) {
	db, _ := newTestDB(t)
	plan, err := explain(context.Background(), db, "SELECT k FROM events WHERE v < 0 LIMIT 3")
	if err != nil || !strings.Contains(plan, "full pushdown") {
		t.Errorf("plan = %q, %v", plan, err)
	}
	plan, err = explain(context.Background(), db, "SELECT g, SUM(v) FROM events GROUP BY g ORDER BY g LIMIT 2")
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"projection pushdown", "GROUP BY", "ORDER BY", "LIMIT 2"} {
		if !strings.Contains(plan, frag) {
			t.Errorf("plan missing %q:\n%s", frag, plan)
		}
	}
	if _, err := explain(context.Background(), db, "garbage"); err == nil {
		t.Error("bad sql should error")
	}
}

// TestLongChainRefusedAtTheDoor: `x = 0 OR x = 1 OR …` nests nothing as it
// parses, but prints — as the pushed WHERE — one parenthesis per term, and
// 1,500 of them used to be planned, sent, and refused by storage's parser.
// The front-door parse now gives the same error before any request, and a
// 900-term chain, which storage can parse, still answers.
func TestLongChainRefusedAtTheDoor(t *testing.T) {
	counting := s3api.NewCounting(s3api.NewInProc(newTestStore(t)))
	db, err := Open(testBucket, WithBackend("s3sim", counting))
	if err != nil {
		t.Fatal(err)
	}
	chain := func(n int) string {
		terms := make([]string, n)
		for i := range terms {
			terms[i] = fmt.Sprintf("k = %d", i)
		}
		return "SELECT k FROM events WHERE " + strings.Join(terms, " OR ")
	}
	_, e, err := db.QueryContext(context.Background(), chain(1500))
	if err == nil || !strings.Contains(err.Error(), "sqlparse: expression nests deeper than 1000 levels") {
		t.Errorf("1500 terms: err = %v, want the parser's nesting-depth error", err)
	}
	if n := counting.Selects() + counting.Gets() + counting.GetRangeCalls() + counting.Lists() + counting.Sizes(); e != nil || n != 0 {
		t.Errorf("1500 terms: %d storage requests and execution %v, want none: refused by the front-door parse", n, e)
	}
	rel, _, err := db.QueryContext(context.Background(), chain(900))
	if err != nil || len(rel.Rows) != 900 {
		t.Fatalf("900 terms: %v, %v; want the 900 rows", rel, err)
	}
	if counting.Selects() == 0 {
		t.Error("900 terms: answered without a select")
	}
}

// TestPrefixChainDepth: a run of NOT or unary minus prints, as the pushed
// SQL, one parenthesis per operator, and the door counts it that way. A
// 600-deep run of either used to parse at the door and be refused by
// storage's parse of its printed form; now it answers, identically pushed to
// storage and evaluated on the server, and a run too deep for storage is
// refused at the door before any request.
func TestPrefixChainDepth(t *testing.T) {
	counting := s3api.NewCounting(s3api.NewInProc(newTestStore(t)))
	db, err := Open(testBucket, WithBackend("s3sim", counting))
	if err != nil {
		t.Fatal(err)
	}
	run := func(sql string) string {
		t.Helper()
		rel, _, err := db.QueryContext(context.Background(), sql)
		if err != nil {
			t.Fatalf("%.60s…: %v", sql, err)
		}
		return render(rel, false)
	}
	nots := func(n int) string { return strings.Repeat("NOT ", n) + "(k < 5)" }
	negs := func(n int) string { return strings.Repeat("- ", n) + "k" }
	for _, n := range []int{499, 600} {
		// The whole statement pushes; with ORDER BY the server evaluates the
		// select list over the pushed projection.
		for _, item := range []string{"CASE WHEN " + nots(n) + " THEN 1 ELSE 0 END AS b", negs(n) + " AS x"} {
			sql := "SELECT k, " + item + " FROM events WHERE k < 20"
			if pushed, local := run(sql), run(sql+" ORDER BY k"); pushed != local {
				t.Errorf("%d-deep %.30s…: pushed and local answers differ\npushed:\n%s\nlocal:\n%s", n, item, pushed, local)
			}
		}
		want := 5 // NOT NOT p is p
		if n%2 == 1 {
			want = 1000 - 5
		}
		if got := strings.Count(run("SELECT k FROM events WHERE "+nots(n)), "\n"); got != want {
			t.Errorf("%d NOTs in WHERE: %d rows, want %d", n, got, want)
		}
	}
	before := counting.Selects() + counting.Gets() + counting.GetRangeCalls() + counting.Lists() + counting.Sizes()
	for _, sql := range []string{"SELECT k FROM events WHERE " + nots(1000), "SELECT " + negs(1000) + " AS x FROM events"} {
		_, e, err := db.QueryContext(context.Background(), sql)
		if err == nil || !strings.Contains(err.Error(), "sqlparse: expression nests deeper than 1000 levels") {
			t.Errorf("1000-deep %.40s…: err = %v, want the parser's nesting-depth error", sql[7:], err)
		}
		if e != nil {
			t.Errorf("1000-deep run: an execution %v, want none", e)
		}
	}
	if n := counting.Selects() + counting.Gets() + counting.GetRangeCalls() + counting.Lists() + counting.Sizes(); n != before {
		t.Errorf("1000-deep runs issued %d storage requests, want none: refused at the door", n-before)
	}
}

// TestTextThatIsNotANumberFailsArithmetic pins `'12abc' + 1`: text is a
// number only when the whole of it parses (value.ParseNum), so arithmetic
// over a cell that merely starts like one is an evaluation error — never
// 13, never NULL — wherever the expression runs: pushed whole to storage,
// in a pushed WHERE, in the server's projection, as a sort key, a group
// key or an aggregate's argument, on the kernels and on the reference.
func TestTextThatIsNotANumberFailsArithmetic(t *testing.T) {
	st := store.New()
	if err := PartitionTable(context.Background(), st, testBucket, "t", []string{"k", "c"},
		[][]string{{"1", "12"}, {"2", "12abc"}, {"3", " 7 "}}, 2); err != nil {
		t.Fatal(err)
	}
	const want = "expr: arithmetic on non-numeric STRING and INT"
	for _, vectorized := range []bool{true, false} {
		db, err := Open(testBucket, WithBackend("s3sim", s3api.NewInProc(st)), WithVectorized(vectorized))
		if err != nil {
			t.Fatal(err)
		}
		for where, sql := range map[string]string{
			"pushed projection":  "SELECT c + 1 FROM t",
			"pushed WHERE":       "SELECT k FROM t WHERE c + 1 > 0",
			"server projection":  "SELECT c + 1 AS x FROM t ORDER BY k",
			"ORDER BY key":       "SELECT k FROM t ORDER BY c + 1",
			"aggregate argument": "SELECT SUM(c + 1) AS s FROM t",
			"group key":          "SELECT COUNT(*) AS n FROM t GROUP BY c + 1",
			"literal":            "SELECT k FROM t WHERE '12abc' + 1 = 13",
		} {
			if _, _, err := db.QueryContext(context.Background(), sql); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("vectorized=%v, %s (%s): err = %v, want %q", vectorized, where, sql, err, want)
			}
		}
		// Text that is a number, space around it or not, computes.
		rel, _, err := db.QueryContext(context.Background(), "SELECT SUM(c + 1) AS s FROM t WHERE k <> 2")
		if err != nil || render(rel, true) != "s\n21" {
			t.Errorf("vectorized=%v: SUM(c + 1) over '12' and ' 7 ' = %v, %v; want 21", vectorized, rel, err)
		}
	}
}
