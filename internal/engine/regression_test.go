package engine

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"pushdowndb/internal/s3api"
	"pushdowndb/internal/selectengine"
	"pushdowndb/internal/sqlparse"
	"pushdowndb/internal/store"
)

// --- ORDER BY over a column the projection drops (query.go finishTail) ---

func TestOrderByColumnDroppedByProjection(t *testing.T) {
	st := store.New()
	rows := [][]string{
		{"carol", "41", "9.5"},
		{"alice", "23", "1.5"},
		{"bob", "35", "4.0"},
		{"dave", "19", "2.5"},
	}
	if err := PartitionTable(context.Background(), st, testBucket, "people", []string{"name", "age", "score"}, rows, 2); err != nil {
		t.Fatal(err)
	}
	db := openTestDB(t, st)

	// The projection drops age, but ORDER BY references it; the scan
	// pushed age down, and the sort must run before the projection.
	rel, _, err := db.QueryContext(context.Background(), "SELECT name FROM people ORDER BY age")
	if err != nil {
		t.Fatalf("ORDER BY on a non-projected column: %v", err)
	}
	var got []string
	for _, r := range rel.Rows {
		got = append(got, r[0].String())
	}
	want := []string{"dave", "alice", "bob", "carol"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("order = %v, want %v", got, want)
	}
	if len(rel.Cols) != 1 || rel.Cols[0] != "name" {
		t.Fatalf("cols = %v, want [name]", rel.Cols)
	}

	// DESC and a computed sort key, still dropped by the projection.
	rel, _, err = db.QueryContext(context.Background(), "SELECT name FROM people ORDER BY score * 2 DESC LIMIT 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(rel.Rows) != 2 || rel.Rows[0][0].String() != "carol" || rel.Rows[1][0].String() != "bob" {
		t.Fatalf("rows = %v", rel.Rows)
	}

	// Aliases still resolve: ORDER BY names a select-list alias whose
	// underlying expression is evaluated over the scan.
	rel, _, err = db.QueryContext(context.Background(), "SELECT age * 2 AS dbl FROM people ORDER BY dbl DESC LIMIT 1")
	if err != nil {
		t.Fatal(err)
	}
	if mustInt(rel.Rows[0][0]) != 82 {
		t.Fatalf("alias order result = %v", rel.Rows)
	}

	// Aliases nested inside a larger ORDER BY expression substitute too.
	rel, _, err = db.QueryContext(context.Background(), "SELECT age * 2 AS dbl FROM people ORDER BY dbl + 1 DESC LIMIT 2")
	if err != nil {
		t.Fatalf("alias inside ORDER BY expression: %v", err)
	}
	if mustInt(rel.Rows[0][0]) != 82 || mustInt(rel.Rows[1][0]) != 70 {
		t.Fatalf("nested alias order result = %v", rel.Rows)
	}

	// Same shape through the GROUP BY path: the sort key is a group-by
	// column the select list drops, carried through the grouping as a
	// hidden item.
	rel, _, err = db.QueryContext(context.Background(), "SELECT COUNT(*) AS n FROM people GROUP BY name ORDER BY name DESC LIMIT 2")
	if err != nil {
		t.Fatalf("grouped ORDER BY on a dropped group column: %v", err)
	}
	if len(rel.Cols) != 1 || rel.Cols[0] != "n" || len(rel.Rows) != 2 {
		t.Fatalf("grouped result = %v %v", rel.Cols, rel.Rows)
	}

	// And ordering a grouped query by an aggregate that is not in the
	// select list.
	rel, _, err = db.QueryContext(context.Background(), "SELECT name FROM people GROUP BY name ORDER BY SUM(score) DESC LIMIT 1")
	if err != nil {
		t.Fatalf("grouped ORDER BY on a hidden aggregate: %v", err)
	}
	if rel.Rows[0][0].String() != "carol" {
		t.Fatalf("top scorer = %v, want carol", rel.Rows[0][0])
	}
}

// TestSortPlansBuiltFromAST pins the two ORDER BY rewrites as AST list
// edits (they used to be string surgery the operators re-parsed): a grouped
// sort key the select list drops becomes a hidden aliased item plus a
// reference to it, an alias inside a sort expression is replaced by the
// aliased expression, and neither edit touches the statement's own lists.
func TestSortPlansBuiltFromAST(t *testing.T) {
	sel, err := sqlparse.Parse("SELECT COUNT(*) AS sortkey_0, MAX(v) FROM t GROUP BY g, h ORDER BY g DESC, sortkey_0, SUM(v)")
	if err != nil {
		t.Fatal(err)
	}
	items, orderBy, hidden := groupSortPlan(sel)
	if hidden != 2 || len(sel.Items) != 2 || len(items) != 4 {
		t.Fatalf("groupSortPlan: hidden=%d, %d statement items, %d planned items", hidden, len(sel.Items), len(items))
	}
	var got []string
	for _, it := range items[2:] {
		got = append(got, it.String())
	}
	for _, o := range orderBy {
		got = append(got, o.String())
	}
	// sortkey_0 is taken by a select-list alias, so hidden names start at 1.
	want := "g AS sortkey_1, SUM(v) AS sortkey_2, sortkey_1 DESC, sortkey_0 ASC, sortkey_2 ASC"
	if strings.Join(got, ", ") != want {
		t.Errorf("groupSortPlan = %s\nwant %s", strings.Join(got, ", "), want)
	}
	if sel.OrderBy[0].Expr.String() != "g" {
		t.Errorf("groupSortPlan rewrote the statement's ORDER BY to %s", sel.OrderBy[0].Expr)
	}

	sel, err = sqlparse.Parse("SELECT a * 2 AS dbl, b FROM t ORDER BY dbl + b DESC, t.dbl")
	if err != nil {
		t.Fatal(err)
	}
	over := orderByOverInput(sel)
	if got := over[0].String() + ", " + over[1].String(); got != "((a * 2) + b) DESC, t.dbl ASC" {
		t.Errorf("orderByOverInput = %s", got)
	}
	if sel.OrderBy[0].Expr.String() != "(dbl + b)" {
		t.Errorf("orderByOverInput rewrote the statement's ORDER BY to %s", sel.OrderBy[0].Expr)
	}
}

// --- literal: canonical round-trip (groupby.go) ---

// TestSQLLiteralRoundTrip: a group value or threshold is a number only when
// its text is that number's canonical rendering, and the literal is the one
// its printed text parses back to.
func TestSQLLiteralRoundTrip(t *testing.T) {
	cases := map[string]string{
		"501":    "501",      // canonical int: bare
		"-5":     "-5",       // sign round-trips
		"-0":     "0",        // the parser reads -0 as the integer 0
		"1.5":    "1.5",      // canonical float: bare
		"00501":  "'00501'",  // leading zeros would re-render as 501
		"1e3":    "'1e3'",    // scientific notation does not round-trip via 'f'
		"NaN":    "'NaN'",    // parses as a float but would be read as an identifier
		"+Inf":   "'+Inf'",   // same
		"Inf":    "'Inf'",    // same
		"0x1p-2": "'0x1p-2'", // hex float literal
		"":       "''",
		"ok":     "'ok'",
		"it's":   "'it''s'",
	}
	for in, want := range cases {
		lit := literal(in)
		if got := lit.String(); got != want {
			t.Errorf("literal(%q) = %s, want %s", in, got, want)
		}
		if back, err := sqlparse.ParseExpr(want); err != nil || !reflect.DeepEqual(back, sqlparse.Expr(lit)) {
			t.Errorf("literal(%q) is %#v; its text %s parses to %#v (%v)", in, lit, want, back, err)
		}
	}
}

// newGroupValueDB builds a table whose group column contains values that
// parse as numbers without round-tripping ("NaN", zip-style "00501") plus
// NULLs, so the pushed-down CASE / NOT IN encodings must quote and
// NULL-handle correctly.
func newGroupValueDB(t *testing.T, vals []string) *DB {
	t.Helper()
	st := store.New()
	var rows [][]string
	for i := 0; i < 240; i++ {
		rows = append(rows, []string{vals[i%len(vals)], fmt.Sprint(i % 10)})
	}
	if err := PartitionTable(context.Background(), st, testBucket, "zips", []string{"zip", "v"}, rows, 3); err != nil {
		t.Fatal(err)
	}
	return openTestDB(t, st)
}

// newGroupValueDBCaps is newGroupValueDB with select capabilities on the
// backend.
func newGroupValueDBCaps(t *testing.T, vals []string, caps selectengine.Capabilities) *DB {
	t.Helper()
	st := store.New()
	var rows [][]string
	for i := 0; i < 240; i++ {
		rows = append(rows, []string{vals[i%len(vals)], fmt.Sprint(i % 10)})
	}
	if err := PartitionTable(context.Background(), st, testBucket, "zips", []string{"zip", "v"}, rows, 3); err != nil {
		t.Fatal(err)
	}
	return openTestDB(t, st, s3api.WithCapabilities(caps))
}

// zipSQL sums v and counts the rows per zip: the statement the S3-side and
// hybrid group-bys take and the forced baseline answers.
const zipSQL = "SELECT zip, SUM(v) AS s, COUNT(*) AS n FROM zips GROUP BY zip"

// TestGroupByNonCanonicalNumericGroups: "NaN" parses as a float, so the
// old sqlLiteral emitted it bare and the pushed CASE read it as a column
// reference; "00501" re-rendered as 501 and stopped matching the stored
// text. Both must aggregate identically to the server-side reference.
func TestGroupByNonCanonicalNumericGroups(t *testing.T) {
	db := newGroupValueDB(t, []string{"NaN", "00501", "10001", "battery park"})
	want := forcedRel(t, db, StrategyBaseline, zipSQL)
	if len(want.Rows) != 4 {
		t.Fatalf("reference groups = %d, want 4", len(want.Rows))
	}
	s3side, err := db.NewExec().S3SideGroupBy(zipSQL)
	if err != nil {
		t.Fatalf("S3-side group-by over NaN/zip-style values: %v", err)
	}
	sameRows(t, "s3side", want, s3side)
	hybrid, err := db.NewExec().HybridGroupBy(zipSQL, HybridGroupByOptions{S3Groups: 2})
	if err != nil {
		t.Fatalf("hybrid group-by over NaN/zip-style values: %v", err)
	}
	sameRows(t, "hybrid", want, hybrid)

	// 3 and 03 are one group, as the server groups them: the hybrid ranks
	// its sample's groups by their typed rendering, so one spelling's CASE
	// does not aggregate both twice.
	db = newGroupValueDB(t, []string{"3", "03", "x"})
	want = forcedRel(t, db, StrategyBaseline, zipSQL)
	for _, s3groups := range []int{1, 2} {
		hybrid, err := db.NewExec().HybridGroupBy(zipSQL, HybridGroupByOptions{S3Groups: s3groups})
		if err != nil {
			t.Fatal(err)
		}
		sameRows(t, fmt.Sprintf("hybrid over 3 and 03, S3Groups=%d", s3groups), want, hybrid)
	}
}

// TestGroupByNullGroups: rows whose group value is NULL (empty CSV field)
// must survive the S3-side CASE encoding and the hybrid NOT IN tail scan
// — a bare NOT IN drops them because the comparison evaluates to NULL.
func TestGroupByNullGroups(t *testing.T) {
	db := newGroupValueDB(t, []string{"", "10001", "10002", "10003", ""})
	want := forcedRel(t, db, StrategyBaseline, zipSQL)
	if len(want.Rows) != 4 {
		t.Fatalf("reference groups = %d (NULL group must be one of them)", len(want.Rows))
	}
	s3side, err := db.NewExec().S3SideGroupBy(zipSQL)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, "s3side", want, s3side)

	// The NULL group is the most frequent value, so with S3Groups=1 it is
	// aggregated in S3 and the tail must exclude exactly it; with a larger
	// budget it can land on either side of the split.
	for _, s3groups := range []int{1, 2, 8} {
		hybrid, err := db.NewExec().HybridGroupBy(zipSQL, HybridGroupByOptions{S3Groups: s3groups})
		if err != nil {
			t.Fatalf("hybrid S3Groups=%d: %v", s3groups, err)
		}
		sameRows(t, fmt.Sprintf("hybrid S3Groups=%d", s3groups), want, hybrid)
	}

	// Suggestion-4 partial group-by path, same NULL-group requirement,
	// against a backend advertising the capability.
	db = newGroupValueDBCaps(t, []string{"", "10001", "10002", "10003", ""},
		selectengine.Capabilities{AllowGroupBy: true})
	partial, err := db.NewExec().HybridGroupBy(zipSQL, HybridGroupByOptions{S3Groups: 2, UsePartialGroupBy: true})
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, "partial", want, partial)
}

// --- Bloom join stage attribution (join.go) ---

// stageStealingBackend allocates a stage on the Exec after every Select,
// simulating concurrent operator work on the same query execution.
type stageStealingBackend struct {
	s3api.Backend
	e *Exec
}

func (c *stageStealingBackend) Select(ctx context.Context, bucket, key string, req selectengine.Request) (*selectengine.Result, error) {
	res, err := c.Backend.Select(ctx, bucket, key, req)
	if c.e != nil {
		c.e.NextStage()
	}
	return res, err
}

// TestBloomJoinStageUnderConcurrentStages: the final hash join of a Bloom
// join must land in the probe scan's stage even when concurrent work
// allocates stages on the same Exec mid-join (the old stageNow() read
// "latest stage - 1" and misattributed it).
func TestBloomJoinStageUnderConcurrentStages(t *testing.T) {
	st := newTestStore(t)
	stealer := &stageStealingBackend{Backend: s3api.NewInProc(st)}
	db, err := Open(testBucket, WithBackend("stealer", stealer))
	if err != nil {
		t.Fatal(err)
	}
	e := db.NewExec()
	stealer.e = e
	_, err = e.Join(JoinSpec{SQL: "SELECT * FROM cust c JOIN ords o ON c.ck = o.ck WHERE c.bal <= 0", Seed: 1}, StrategyBloom)
	if err != nil {
		t.Fatal(err)
	}
	probeStage, ok := e.Metrics.StageOf("bloom probe")
	if !ok {
		t.Fatal("no bloom probe phase recorded")
	}
	joinStage, ok := e.Metrics.StageOf("hash join")
	if !ok {
		t.Fatal("no hash join phase recorded")
	}
	if joinStage != probeStage {
		t.Errorf("hash join attributed to stage %d, want the probe's stage %d", joinStage, probeStage)
	}
}
