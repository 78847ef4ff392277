package engine

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"pushdowndb/internal/csvx"
	"pushdowndb/internal/obs"
	"pushdowndb/internal/s3api"
	"pushdowndb/internal/selectengine"
	"pushdowndb/internal/store"
	"pushdowndb/internal/value"
)

const testBucket = "test"

// newTestStore builds a store with the shared test tables:
//
//	events(k INT, g INT, v FLOAT)  — 1000 rows, g in [0,10), partitioned x4
//	cust(ck INT, bal FLOAT)        — 100 rows, partitioned x2
//	ords(ok INT, ck INT, price FLOAT) — 400 rows, partitioned x4
func newTestStore(t testing.TB) *store.Store {
	t.Helper()
	st := store.New()
	rng := rand.New(rand.NewSource(12345))

	var events [][]string
	for i := 0; i < 1000; i++ {
		events = append(events, []string{
			fmt.Sprint(i),
			fmt.Sprint(rng.Intn(10)),
			fmt.Sprintf("%.2f", rng.Float64()*100-50),
		})
	}
	if err := PartitionTable(context.Background(), st, testBucket, "events", []string{"k", "g", "v"}, events, 4); err != nil {
		t.Fatal(err)
	}

	var cust [][]string
	for i := 0; i < 100; i++ {
		cust = append(cust, []string{fmt.Sprint(i), fmt.Sprintf("%.2f", rng.Float64()*2000-1000)})
	}
	if err := PartitionTable(context.Background(), st, testBucket, "cust", []string{"ck", "bal"}, cust, 2); err != nil {
		t.Fatal(err)
	}

	var ords [][]string
	for i := 0; i < 400; i++ {
		ords = append(ords, []string{
			fmt.Sprint(i),
			fmt.Sprint(rng.Intn(100)),
			fmt.Sprintf("%.2f", rng.Float64()*500),
		})
	}
	if err := PartitionTable(context.Background(), st, testBucket, "ords", []string{"ok", "ck", "price"}, ords, 4); err != nil {
		t.Fatal(err)
	}
	return st
}

// buildIndex builds the secondary index on table(column) the way every
// caller does: through a DB's catalog.
func buildIndex(t testing.TB, st *store.Store, bucket, table, column string) {
	t.Helper()
	db, err := Open(bucket, WithBackend("s3sim", s3api.NewInProc(st)))
	if err == nil {
		err = db.CreateIndex(context.Background(), table, column)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// openTestDB opens a DB over st with one in-process backend built with the
// given options.
func openTestDB(t *testing.T, st *store.Store, bopts ...s3api.Option) *DB {
	t.Helper()
	db, err := Open(testBucket, WithBackend("s3sim", s3api.NewInProc(st, bopts...)))
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// newTestDB builds the shared test store and opens a default DB over it.
func newTestDB(t *testing.T) (*DB, *store.Store) {
	t.Helper()
	st := newTestStore(t)
	return openTestDB(t, st), st
}

func sortedRows(rel *Relation) []string {
	out := make([]string, len(rel.Rows))
	for i, r := range rel.Rows {
		s := ""
		for _, v := range r {
			s += v.String() + "|"
		}
		out[i] = s
	}
	sort.Strings(out)
	return out
}

func sameRows(t *testing.T, name string, a, b *Relation) {
	t.Helper()
	if len(a.Rows) != len(b.Rows) {
		t.Fatalf("%s: %d rows vs %d rows", name, len(a.Rows), len(b.Rows))
	}
	ra, rb := sortedRows(a), sortedRows(b)
	if !reflect.DeepEqual(ra, rb) {
		max := 5
		if len(ra) < max {
			max = len(ra)
		}
		t.Fatalf("%s: rows differ, e.g. %v vs %v", name, ra[:max], rb[:max])
	}
}

// --- local operators ---

func TestLocalOperators(t *testing.T) {
	rel := relOf([]string{"a", "b"}, [][]string{{"3", "x"}, {"1", "y"}, {"2", "x"}})
	f, err := localRef(rel, "SELECT * FROM t WHERE b = 'x'")
	if err != nil || len(f.Rows) != 2 {
		t.Fatalf("filter: %v, %v", f, err)
	}
	p, err := localRef(rel, "SELECT a * 2 AS dbl, b FROM t")
	if err != nil || p.Cols[0] != "dbl" || p.Rows[0][0].AsInt() != 6 {
		t.Fatalf("project: %v, %v", p, err)
	}
	s, err := localRef(rel, "SELECT * FROM t ORDER BY a DESC")
	if err != nil || s.Rows[0][0].AsInt() != 3 || s.Rows[2][0].AsInt() != 1 {
		t.Fatalf("sort: %v, %v", s, err)
	}
	l := LimitLocal(s, 2)
	if len(l.Rows) != 2 {
		t.Fatalf("limit: %v", l)
	}
	if got := LimitLocal(s, 100); len(got.Rows) != 3 {
		t.Fatal("limit beyond length should be a no-op")
	}
}

func TestHashJoinLocal(t *testing.T) {
	left := relOf([]string{"id", "name"}, [][]string{{"1", "a"}, {"2", "b"}, {"3", "c"}})
	right := relOf([]string{"fk", "val"}, [][]string{{"2", "x"}, {"2", "y"}, {"9", "z"}})
	j, err := HashJoin(left, right, "id", "fk")
	if err != nil {
		t.Fatal(err)
	}
	if len(j.Rows) != 2 {
		t.Fatalf("join rows = %v", j.Rows)
	}
	if j.Cols[0] != "id" || j.Cols[3] != "val" {
		t.Errorf("join cols = %v", j.Cols)
	}
	if _, err := HashJoin(left, right, "nope", "fk"); err == nil {
		t.Error("bad key should error")
	}
}

func TestGroupByLocal(t *testing.T) {
	rel := relOf([]string{"g", "v"}, [][]string{{"a", "1"}, {"b", "2"}, {"a", "3"}})
	out, err := localRef(rel, "SELECT g, SUM(v) AS s, COUNT(*) AS n FROM t GROUP BY g")
	if err != nil {
		t.Fatal(err)
	}
	got := map[string][2]int64{}
	for _, r := range out.Rows {
		got[r[0].String()] = [2]int64{mustInt(r[1]), mustInt(r[2])}
	}
	if got["a"] != [2]int64{4, 2} || got["b"] != [2]int64{2, 1} {
		t.Errorf("groups = %v", got)
	}
}

func mustInt(v value.Value) int64 {
	i, _ := v.IntNum()
	return i
}

// --- scans ---

func TestLoadTableMatchesSelectStar(t *testing.T) {
	db, _ := newTestDB(t)
	e1 := db.NewExec()
	loaded, err := e1.LoadTable("load", e1.NextStage(), "events")
	if err != nil {
		t.Fatal(err)
	}
	e2 := db.NewExec()
	selected, err := e2.SelectRows("scan", e2.NextStage(), "events", "SELECT * FROM S3Object")
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, "load vs select *", loaded, selected)
	if len(loaded.Rows) != 1000 {
		t.Fatalf("rows = %d", len(loaded.Rows))
	}
}

// TestLoadTableOwnsItsBytes loads a table whose partitions live in buffers
// the test keeps, overwrites them, and expects the relation unchanged — and
// equal, cell for cell and kind for kind, to typing csvx.Decode's rows,
// the two-step path LoadTable used to take.
func TestLoadTableOwnsItsBytes(t *testing.T) {
	parts := [][]byte{
		[]byte("k,name,note,d\n1,ann,\"say \"\"hi\"\"\",1994-01-01\n2,,\"a,b\",x\r\n"),
		[]byte("k,name,note,d\n3,cy\n4,dee,1e3,1994-13-45,extra\n,\" 5\",-0,Inf"),
	}
	st := store.New()
	want := &Relation{}
	for i, data := range parts {
		st.Put(testBucket, fmt.Sprintf("t/part%04d.csv", i), data)
		header, rows, err := csvx.Decode(data, true)
		if err != nil {
			t.Fatal(err)
		}
		rel := relOf(header, rows)
		want.Cols, want.Rows = rel.Cols, append(want.Rows, rel.Rows...)
	}
	e := openTestDB(t, st).NewExec()
	got, err := e.LoadTable("load", e.NextStage(), "t")
	if err != nil {
		t.Fatal(err)
	}
	for _, data := range parts {
		for i := range data {
			data[i] = 'X'
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("loaded relation differs once its partitions are overwritten:\n got %v %v\nwant %v %v",
			got.Cols, got.Rows, want.Cols, want.Rows)
	}
}

func TestSelectAggMergesPartitions(t *testing.T) {
	db, _ := newTestDB(t)
	e := db.NewExec()
	row, err := e.SelectAgg("agg", e.NextStage(), "events", "SELECT COUNT(*), SUM(v), MIN(v), MAX(v) FROM S3Object")
	if err != nil {
		t.Fatal(err)
	}
	// Each column merges by its item's aggregate; an item that is not one
	// has no merge and is refused before any partition is asked.
	for _, sql := range []string{"SELECT COUNT(*), v FROM S3Object", "SELECT SUM(v) + 1 FROM S3Object", "SELECT * FROM S3Object"} {
		if _, err := e.SelectAgg("agg", e.NextStage(), "events", sql); s3api.KindOf(err) != s3api.KindBadRequest {
			t.Errorf("%s: %v, want a bad_request", sql, err)
		}
	}
	if mustInt(row[0]) != 1000 {
		t.Errorf("count = %v", row[0])
	}
	// Cross-check against a local scan.
	e2 := db.NewExec()
	all, _ := e2.LoadTable("load", e2.NextStage(), "events")
	loc, err := localRef(all, "SELECT SUM(v) AS s, MIN(v) AS mn, MAX(v) AS mx FROM t")
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range loc.Rows[0] {
		got, _ := row[i+1].Num()
		w, _ := want.Num()
		if diff := got - w; diff > 0.01 || diff < -0.01 {
			t.Errorf("agg %d: %v != %v", i, got, w)
		}
	}
}

func TestTableHeader(t *testing.T) {
	db, _ := newTestDB(t)
	e := db.NewExec()
	h, err := e.TableHeader("hdr", e.NextStage(), "events")
	if err != nil || !reflect.DeepEqual(h, []string{"k", "g", "v"}) {
		t.Fatalf("header = %v, %v", h, err)
	}
}

// --- Section IV: filter strategies ---

func TestFilterStrategiesAgree(t *testing.T) {
	db, st := newTestDB(t)
	buildIndex(t, st, testBucket, "events", "v")
	pred := "v <= -40"

	sql := "SELECT * FROM events WHERE " + pred
	server, e1, err := db.QueryForced(context.Background(), sql, StrategyBaseline)
	if err != nil {
		t.Fatal(err)
	}
	s3side, e2, err := db.QueryForced(context.Background(), sql, StrategyFiltered)
	if err != nil {
		t.Fatal(err)
	}
	e3 := db.NewExec()
	indexed, err := e3.IndexFilter(sql, IndexFilterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	e4 := db.NewExec()
	indexedMR, err := e4.IndexFilter(sql, IndexFilterOptions{MultiRange: true})
	if err != nil {
		t.Fatal(err)
	}

	if len(server.Rows) == 0 {
		t.Fatal("test predicate selected nothing")
	}
	identicalRel(t, "server vs s3-side", server, s3side)
	sameRows(t, "server vs indexed", server, indexed)
	sameRows(t, "server vs indexed multirange", server, indexedMR)

	// Data movement: server-side pulls the whole table; S3-side returns
	// only the matches. (At this toy scale both runtimes bottom out at
	// the request RTT, so compare bytes, not seconds — the harness tests
	// verify the runtime shapes at realistic scale.)
	_, _, _, serverGet := e1.Metrics.Totals()
	_, _, s3Returned, _ := e2.Metrics.Totals()
	if s3Returned >= serverGet {
		t.Errorf("s3-side returned %d bytes should be far below server-side load %d", s3Returned, serverGet)
	}
	// Multi-range GET must use fewer requests than per-row GETs.
	req3, _, _, _ := e3.Metrics.Totals()
	req4, _, _, _ := e4.Metrics.Totals()
	if req4 >= req3 {
		t.Errorf("multi-range requests %d should be < per-row requests %d", req4, req3)
	}
}

// TestIndexFilterMissingIndex: IndexFilter runs only a SELECT * whose every
// conjunct the live index resolves; anything else is a bad_request saying
// why.
func TestIndexFilterMissingIndex(t *testing.T) {
	db, st := newTestDB(t)
	buildIndex(t, st, testBucket, "events", "v")
	for _, c := range []struct{ sql, why string }{
		{"SELECT * FROM cust WHERE bal <= 0", "the table has no live index"},
		{"SELECT * FROM events WHERE g = 3", "no conjunct of the WHERE clause compares an indexed column"},
		{"SELECT * FROM events", "no conjunct of the WHERE clause compares an indexed column"},
		{"SELECT * FROM events WHERE v <= 0 AND g = 3", "a conjunct is not resolved by the index on v"},
		{"SELECT k FROM events WHERE v <= 0", "it selects *"},
		{"SELECT * FROM events WHERE v <= 0 ORDER BY k", "it runs no ORDER BY or LIMIT"},
		{"SELECT * FROM events WHERE", "expected"},
	} {
		_, err := db.NewExec().IndexFilter(c.sql, IndexFilterOptions{})
		if s3api.KindOf(err) != s3api.KindBadRequest || !strings.Contains(fmt.Sprint(err), c.why) {
			t.Errorf("%s: %v, want a bad_request saying %q", c.sql, err, c.why)
		}
	}
}

// --- Section V: joins ---

// joinSQL is the test join: orders of the customers at or below -500, with
// an integer sum, so every algorithm answers byte for byte.
const joinSQL = "SELECT SUM(o.ok) AS total, COUNT(*) AS n FROM cust c JOIN ords o ON c.ck = o.ck WHERE c.bal <= -500"

func joinSpec() JoinSpec { return JoinSpec{SQL: joinSQL, Seed: 7} }

// joinRel runs js with algorithm.
func joinRel(t *testing.T, db *DB, js JoinSpec, algorithm string) *Relation {
	t.Helper()
	rel, err := db.NewExec().Join(js, algorithm)
	if err != nil {
		t.Fatalf("%s join of %s: %v", algorithm, js.SQL, err)
	}
	return rel
}

// TestJoinAlgorithmsAgree: each Section-V algorithm answers its statement
// byte for byte as the planner does (in any row order for SELECT *), and a
// statement or algorithm Join cannot run is a bad_request saying why.
func TestJoinAlgorithmsAgree(t *testing.T) {
	db, _ := newTestDB(t)
	ctx := context.Background()
	for _, sql := range []string{
		joinSQL,
		"SELECT * FROM cust c JOIN ords o ON o.ck = c.ck WHERE c.bal <= -500 AND o.price < 250",
		"SELECT COUNT(*) AS n, SUM(cust.ck * 2) AS s FROM cust JOIN ords ON cust.ck = ords.ck",
	} {
		want, _, err := db.QueryContext(ctx, sql)
		if err != nil {
			t.Fatal(err)
		}
		for _, algo := range []string{StrategyBaseline, StrategyFiltered, StrategyBloom} {
			got := joinRel(t, db, JoinSpec{SQL: sql, Seed: 7}, algo)
			if strings.HasPrefix(sql, "SELECT *") {
				sameRows(t, algo+" "+sql, want, got)
			} else {
				identicalRel(t, algo+" "+sql, want, got)
			}
		}
	}

	// The Bloom filter must reduce probe-side returned bytes vs filtered.
	filteredExec, bloomExec := db.NewExec(), db.NewExec()
	if _, err := filteredExec.Join(joinSpec(), StrategyFiltered); err != nil {
		t.Fatal(err)
	}
	if _, err := bloomExec.Join(joinSpec(), StrategyBloom); err != nil {
		t.Fatal(err)
	}
	_, _, retF, _ := filteredExec.Metrics.Totals()
	_, _, retB, _ := bloomExec.Metrics.Totals()
	if retB >= retF {
		t.Errorf("bloom returned %d bytes, filtered %d — filter ineffective", retB, retF)
	}

	for _, c := range []struct{ algo, sql, why string }{
		{"nope", joinSQL, "not a join algorithm"},
		{StrategyIndexScan, joinSQL, "not a join algorithm"},
		{StrategyBloom, "SELECT COUNT(*) FROM cust c JOIN ords o ON c.ck = o.ck WHERE bal < 0", "column bal is not qualified by a table of the FROM clause"},
		{StrategyBloom, "SELECT COUNT(*) FROM cust c JOIN ords o ON ck = o.ck", "column ck is not qualified"},
		{StrategyBloom, "SELECT SUM(price) FROM cust c JOIN ords o ON c.ck = o.ck", "column price is not qualified"},
		{StrategyBaseline, "SELECT COUNT(*) FROM cust c JOIN ords o ON c.ck = o.ck WHERE c.bal < 0 OR o.price > 9", "does not read exactly one table"},
		{StrategyBaseline, "SELECT COUNT(*) FROM cust c JOIN ords o ON c.ck = o.ck WHERE 1 = 1", "does not read exactly one table"},
		{StrategyBaseline, "SELECT COUNT(*) FROM cust c JOIN ords o ON c.ck = o.ck JOIN events e ON e.k = o.ok", "it reads 2 table(s), not 3"},
		{StrategyBaseline, "SELECT COUNT(*) FROM cust", "it reads 2 table(s), not 1"},
		{StrategyBaseline, "SELECT COUNT(*) FROM cust c, ords o WHERE c.ck = o.ck", "the ON condition equates no column of one table with one of the other"},
		{StrategyBaseline, "SELECT COUNT(*) FROM cust c JOIN ords o ON c.ck < o.ck", "equates no column of one table with one of the other"},
		{StrategyBaseline, "SELECT COUNT(*) FROM cust c JOIN ords o ON c.ck = c.bal", "equates no column of one table with one of the other"},
		{StrategyBaseline, "SELECT COUNT(*) FROM cust c JOIN ords o ON c.ck = x.ck", "column x.ck is not qualified"},
		{StrategyBaseline, "SELECT c.ck FROM cust c JOIN ords o ON c.ck = o.ck", "the select list is * or aggregates, not c.ck"},
		{StrategyBaseline, "SELECT *, COUNT(*) FROM cust c JOIN ords o ON c.ck = o.ck", "the select list is * or aggregates"},
		{StrategyBaseline, "SELECT c.ck, COUNT(*) FROM cust c JOIN ords o ON c.ck = o.ck GROUP BY c.ck", "it groups by 0 key(s), not 1"},
		{StrategyBaseline, "SELECT COUNT(*) FROM cust c JOIN cust c ON c.ck = c.ck", "the ON condition equates no column"},
		{StrategyBaseline, "SELECT COUNT(*) FROM", "expected"},
	} {
		_, err := db.NewExec().Join(JoinSpec{SQL: c.sql}, c.algo)
		if s3api.KindOf(err) != s3api.KindBadRequest || !strings.Contains(fmt.Sprint(err), c.why) {
			t.Errorf("%s join of %s: %v, want a bad_request saying %q", c.algo, c.sql, err, c.why)
		}
	}
}

func TestBloomJoinBitwise(t *testing.T) {
	st := newTestStore(t)
	// BLOOM_CONTAINS needs a backend advertising the Suggestion-3
	// capability.
	db := openTestDB(t, st, s3api.WithCapabilities(
		selectengine.Capabilities{AllowBloomContains: true}))
	js := joinSpec()
	js.Bitwise = true
	identicalRel(t, "bitwise bloom join", joinRel(t, db, joinSpec(), StrategyBaseline), joinRel(t, db, js, StrategyBloom))
}

func TestBloomJoinDegradesToFiltered(t *testing.T) {
	db, _ := newTestDB(t)
	// Every customer: the Bloom path with all keys, possibly degraded,
	// still answers as the baseline join.
	js := JoinSpec{SQL: "SELECT SUM(o.ok) AS total, COUNT(*) AS n FROM cust c JOIN ords o ON c.ck = o.ck", Seed: 7}
	identicalRel(t, "degraded bloom join", joinRel(t, db, js, StrategyBaseline), joinRel(t, db, js, StrategyBloom))
}

func TestJoinEmptyBuildSide(t *testing.T) {
	db, _ := newTestDB(t)
	js := JoinSpec{SQL: "SELECT COUNT(*) AS n FROM cust c JOIN ords o ON c.ck = o.ck WHERE c.bal < -99999"}
	if got := joinRel(t, db, js, StrategyBloom); mustInt(got.Rows[0][0]) != 0 {
		t.Errorf("empty build side should join to zero rows, got %v", got.Rows[0][0])
	}
}

// --- Section VI: group-by ---

// groupSQL sums v and counts the rows per key of table: the statement every
// group-by algorithm takes, the server-side and filtered ones as a forced
// baseline and filtered plan.
func groupSQL(table, key string) string {
	return fmt.Sprintf("SELECT %s, SUM(v) AS total, COUNT(*) AS n FROM %s GROUP BY %[1]s", key, table)
}

// forcedRel runs sql with its access decision forced to strategy.
func forcedRel(t *testing.T, db *DB, strategy, sql string) *Relation {
	t.Helper()
	rel, _, err := db.QueryForced(context.Background(), sql, strategy)
	if err != nil {
		t.Fatalf("%s forced %s: %v", sql, strategy, err)
	}
	return rel
}

// intGroupSQL is groupSQL with an integer sum, which every algorithm
// answers byte for byte.
func intGroupSQL(table, key string) string {
	return fmt.Sprintf("SELECT %s, SUM(k) AS total, COUNT(*) AS n FROM %s GROUP BY %[1]s", key, table)
}

// TestGroupByAlgorithmsAgree: the S3-side and hybrid group-bys answer their
// statement byte for byte as the forced baseline does (the hybrid in its own
// group order), and a statement they cannot run is a bad_request saying why.
func TestGroupByAlgorithmsAgree(t *testing.T) {
	db, _ := newTestDB(t)
	for _, sql := range []string{
		intGroupSQL("events", "g"),
		"SELECT g, COUNT(*) AS n, SUM(k * 2) FROM events WHERE k < 700 GROUP BY g",
		"SELECT g, SUM(k) FROM events GROUP BY g",
	} {
		want := forcedRel(t, db, StrategyBaseline, sql)
		if filtered := forcedRel(t, db, StrategyFiltered, sql); filtered.String() != want.String() {
			t.Errorf("filtered %s:\n%s\nbaseline:\n%s", sql, filtered, want)
		}
		s3side, err := db.NewExec().S3SideGroupBy(sql)
		if err != nil {
			t.Fatal(err)
		}
		identicalRel(t, "s3side "+sql, want, s3side)
		if strings.Contains(sql, "WHERE") {
			continue
		}
		hybrid, err := db.NewExec().HybridGroupBy(sql, HybridGroupByOptions{S3Groups: 4})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(hybrid.Cols, want.Cols) {
			t.Errorf("hybrid %s: columns %v, want %v", sql, hybrid.Cols, want.Cols)
		}
		sameRows(t, "hybrid "+sql, want, hybrid)
	}

	for _, c := range []struct {
		hybrid   bool
		sql, why string
	}{
		{false, "SELECT g, MIN(v) AS m FROM events GROUP BY g", "only SUM(x) and COUNT(*) are pushed, not MIN(v)"},
		{true, "SELECT g, COUNT(v) FROM events GROUP BY g", "only SUM(x) and COUNT(*) are pushed, not COUNT(v)"},
		{false, "SELECT g, AVG(v) FROM events GROUP BY g", "only SUM(x) and COUNT(*) are pushed"},
		{false, "SELECT g, SUM(v) + 1 FROM events GROUP BY g", "only SUM(x) and COUNT(*) are pushed"},
		{true, "SELECT g, k, SUM(v) FROM events GROUP BY g, k", "it groups by 1 key(s), not 2"},
		{false, "SELECT SUM(v) FROM events", "it groups by 1 key(s), not 0"},
		{false, "SELECT g, SUM(v) AS s FROM events GROUP BY g ORDER BY s", "it runs no ORDER BY or LIMIT"},
		{true, "SELECT g, SUM(v) AS s FROM events GROUP BY g LIMIT 3", "it runs no ORDER BY or LIMIT"},
		{false, "SELECT c.ck, COUNT(*) FROM cust c JOIN ords o ON c.ck = o.ck GROUP BY c.ck", "it reads 1 table(s), not 2"},
		{true, "SELECT g, SUM(v) FROM events WHERE k < 5 GROUP BY g", "it takes no WHERE clause"},
		{false, "SELECT SUM(v), g FROM events GROUP BY g", "the select list is the GROUP BY key, then its aggregates"},
		{false, "SELECT g FROM events GROUP BY g", "the select list is the GROUP BY key, then its aggregates"},
		{false, "SELECT g, SUM(v) FROM events GROUP", "expected"},
	} {
		var err error
		if c.hybrid {
			_, err = db.NewExec().HybridGroupBy(c.sql, HybridGroupByOptions{})
		} else {
			_, err = db.NewExec().S3SideGroupBy(c.sql)
		}
		if s3api.KindOf(err) != s3api.KindBadRequest || !strings.Contains(fmt.Sprint(err), c.why) {
			t.Errorf("%s (hybrid %v): %v, want a bad_request saying %q", c.sql, c.hybrid, err, c.why)
		}
	}
}

func TestHybridGroupByPartialGroupBy(t *testing.T) {
	st := newTestStore(t)
	db := openTestDB(t, st, s3api.WithCapabilities(
		selectengine.Capabilities{AllowGroupBy: true}))
	e := db.NewExec()
	got, err := e.HybridGroupBy(intGroupSQL("events", "g"), HybridGroupByOptions{S3Groups: 3, UsePartialGroupBy: true})
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, "partial group-by", forcedRel(t, db, StrategyBaseline, intGroupSQL("events", "g")), got)
}

// TestHybridGroupByPushesTheLargestGroups: the hybrid aggregates in S3 the
// groups that are largest across the table, not the ones each partition
// happens to begin with. Every partition opens with rows of six small
// groups; with two groups in S3 the tail scan returns exactly the rows
// outside the two largest.
func TestHybridGroupByPushesTheLargestGroups(t *testing.T) {
	st := store.New()
	const parts, perPart = 4, 2000
	var rows [][]string
	tail := 0
	for p := 0; p < parts; p++ {
		for i := 0; i < perPart; i++ {
			var g string
			switch {
			case i < 60:
				g = fmt.Sprintf("s%d", i%6)
			case i%10 < 4:
				g = "b1"
			case i%10 < 7:
				g = "b2"
			default:
				g = fmt.Sprintf("m%d", i%3)
			}
			if g != "b1" && g != "b2" {
				tail++
			}
			rows = append(rows, []string{g, fmt.Sprint(i % 10)})
		}
	}
	if err := PartitionTable(context.Background(), st, testBucket, "skew", []string{"g", "v"}, rows, parts); err != nil {
		t.Fatal(err)
	}
	db := openTestDB(t, st)
	tr := obs.New("t", "hybrid")
	got, err := db.NewExecContext(obs.WithTrace(context.Background(), tr)).
		HybridGroupBy(groupSQL("skew", "g"), HybridGroupByOptions{S3Groups: 2})
	if err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	scan := tr.Snapshot().Find("tail scan")
	if scan == nil {
		t.Fatal("no tail scan span")
	}
	if returned, _ := scan.Int("rows"); returned != int64(tail) {
		t.Errorf("tail scan returned %d rows, want the %d outside the two largest groups", returned, tail)
	}
	want := forcedRel(t, db, StrategyBaseline, groupSQL("skew", "g"))
	sameRows(t, "hybrid", want, got)
}

// TestHandOperatorsWithoutStatistics: over a table with no usable
// statistics object the hybrid group-by pushes no group and the sampling
// top-K samples K rows; both answer as their server-side baselines.
func TestHandOperatorsWithoutStatistics(t *testing.T) {
	db, err := Open(testBucket, WithBackend("s3sim", noStats{s3api.NewInProc(newTestStore(t))}))
	if err != nil {
		t.Fatal(err)
	}
	want := forcedRel(t, db, StrategyBaseline, groupSQL("events", "g"))
	e := db.NewExec()
	got, err := e.HybridGroupBy(groupSQL("events", "g"), HybridGroupByOptions{S3Groups: 4})
	if err != nil {
		t.Fatal(err)
	}
	identicalRel(t, "hybrid", want, got)
	if sec := e.Metrics.PhaseSeconds("s3 big groups"); sec != 0 {
		t.Errorf("hybrid without statistics spent %gs aggregating big groups in S3", sec)
	}
	for _, k := range []int{8, 25} {
		sql := fmt.Sprintf("SELECT * FROM events ORDER BY v DESC LIMIT %d", k)
		got, err := db.NewExec().SamplingTopK(sql, 0)
		if err != nil {
			t.Fatal(err)
		}
		identicalRel(t, fmt.Sprintf("sampling top-%d", k), forcedRel(t, db, StrategyBaseline, sql), got)
	}
}

func TestS3SideGroupByRejectsMinMax(t *testing.T) {
	db, _ := newTestDB(t)
	for _, agg := range []string{"MIN(v)", "MAX(v)"} {
		_, err := db.NewExec().S3SideGroupBy("SELECT g, " + agg + " AS m FROM events GROUP BY g")
		if s3api.KindOf(err) != s3api.KindBadRequest {
			t.Errorf("%s cannot be pushed via CASE encoding: %v", agg, err)
		}
	}
}

// --- metrics sanity ---

func TestMetricsAccumulateAcrossStages(t *testing.T) {
	db, _ := newTestDB(t)
	e := db.NewExec()
	if _, err := e.Join(joinSpec(), StrategyBloom); err != nil {
		t.Fatal(err)
	}
	if e.RuntimeSeconds() <= 0 {
		t.Error("runtime should be positive")
	}
	c := e.Cost()
	if c.Total() <= 0 || c.ScanUSD <= 0 {
		t.Errorf("cost breakdown incomplete: %+v", c)
	}
	requests, scan, _, _ := e.Metrics.Totals()
	if requests == 0 || scan == 0 {
		t.Error("request/scan accounting missing")
	}
}
