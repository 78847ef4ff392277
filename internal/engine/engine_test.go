package engine

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"pushdowndb/internal/csvx"
	"pushdowndb/internal/s3api"
	"pushdowndb/internal/selectengine"
	"pushdowndb/internal/sqlparse"
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
	rel := FromStringsN([]string{"a", "b"}, [][]string{{"3", "x"}, {"1", "y"}, {"2", "x"}}, 1)
	f, err := FilterLocal(rel, "b = 'x'")
	if err != nil || len(f.Rows) != 2 {
		t.Fatalf("filter: %v, %v", f, err)
	}
	p, err := projectRef(rel, "a * 2 AS dbl, b")
	if err != nil || p.Cols[0] != "dbl" || p.Rows[0][0].AsInt() != 6 {
		t.Fatalf("project: %v, %v", p, err)
	}
	s, err := SortLocal(rel, "a DESC")
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
	left := FromStringsN([]string{"id", "name"}, [][]string{{"1", "a"}, {"2", "b"}, {"3", "c"}}, 1)
	right := FromStringsN([]string{"fk", "val"}, [][]string{{"2", "x"}, {"2", "y"}, {"9", "z"}}, 1)
	j, err := HashJoinLocal(left, right, "id", "fk")
	if err != nil {
		t.Fatal(err)
	}
	if len(j.Rows) != 2 {
		t.Fatalf("join rows = %v", j.Rows)
	}
	if j.Cols[0] != "id" || j.Cols[3] != "val" {
		t.Errorf("join cols = %v", j.Cols)
	}
	if _, err := HashJoinLocal(left, right, "nope", "fk"); err == nil {
		t.Error("bad key should error")
	}
}

func TestGroupByLocal(t *testing.T) {
	rel := FromStringsN([]string{"g", "v"}, [][]string{{"a", "1"}, {"b", "2"}, {"a", "3"}}, 1)
	out, err := GroupByLocal(rel, "g", "g, SUM(v) AS s, COUNT(*) AS n")
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
		if err := want.Concat(FromStringsN(header, rows, 1)); err != nil {
			t.Fatal(err)
		}
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
	row, err := e.SelectAgg("agg", e.NextStage(), "events",
		"SELECT COUNT(*), SUM(v), MIN(v), MAX(v) FROM S3Object",
		[]sqlparse.AggFunc{sqlparse.AggCount, sqlparse.AggSum, sqlparse.AggMin, sqlparse.AggMax})
	if err != nil {
		t.Fatal(err)
	}
	if mustInt(row[0]) != 1000 {
		t.Errorf("count = %v", row[0])
	}
	// Cross-check against a local scan.
	e2 := db.NewExec()
	all, _ := e2.LoadTable("load", e2.NextStage(), "events")
	loc, err := AggregateLocal(all, "SUM(v) AS s, MIN(v) AS mn, MAX(v) AS mx")
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

	e1 := db.NewExec()
	server, err := e1.ServerSideFilter("events", pred, "")
	if err != nil {
		t.Fatal(err)
	}
	e2 := db.NewExec()
	s3side, err := e2.S3SideFilter("events", pred, "*")
	if err != nil {
		t.Fatal(err)
	}
	e3 := db.NewExec()
	indexed, err := e3.IndexFilter("events", "v", "value <= -40", IndexFilterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	e4 := db.NewExec()
	indexedMR, err := e4.IndexFilter("events", "v", "value <= -40", IndexFilterOptions{MultiRange: true})
	if err != nil {
		t.Fatal(err)
	}

	if len(server.Rows) == 0 {
		t.Fatal("test predicate selected nothing")
	}
	sameRows(t, "server vs s3-side", server, s3side)
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

func TestIndexFilterMissingIndex(t *testing.T) {
	db, _ := newTestDB(t)
	e := db.NewExec()
	if _, err := e.IndexFilter("events", "nosuchcol", "value <= 0", IndexFilterOptions{}); err == nil {
		t.Error("missing index table should error")
	}
}

// --- Section V: joins ---

func joinSpec() JoinSpec {
	return JoinSpec{
		LeftTable: "cust", RightTable: "ords",
		LeftKey: "ck", RightKey: "ck",
		LeftFilter:   "bal <= -500",
		LeftProject:  []string{"ck", "bal"},
		RightProject: []string{"ck", "price"},
		Seed:         7,
	}
}

func TestJoinAlgorithmsAgree(t *testing.T) {
	db, _ := newTestDB(t)
	baselineExec := db.NewExec()
	baseline, err := baselineExec.JoinAggregate(joinSpec(), "baseline", "SUM(price) AS total, COUNT(*) AS n")
	if err != nil {
		t.Fatal(err)
	}
	filteredExec := db.NewExec()
	filtered, err := filteredExec.JoinAggregate(joinSpec(), "filtered", "SUM(price) AS total, COUNT(*) AS n")
	if err != nil {
		t.Fatal(err)
	}
	bloomExec := db.NewExec()
	bloomed, err := bloomExec.JoinAggregate(joinSpec(), "bloom", "SUM(price) AS total, COUNT(*) AS n")
	if err != nil {
		t.Fatal(err)
	}

	for name, rel := range map[string]*Relation{"filtered": filtered, "bloom": bloomed} {
		for i := range baseline.Rows[0] {
			a, _ := baseline.Rows[0][i].Num()
			b, _ := rel.Rows[0][i].Num()
			if diff := a - b; diff > 0.01 || diff < -0.01 {
				t.Errorf("%s join item %d: %v != baseline %v", name, i, b, a)
			}
		}
	}

	// The Bloom filter must reduce probe-side returned bytes vs filtered.
	_, _, retF, getF := filteredExec.Metrics.Totals()
	_, _, retB, _ := bloomExec.Metrics.Totals()
	_ = getF
	if retB >= retF {
		t.Errorf("bloom returned %d bytes, filtered %d — filter ineffective", retB, retF)
	}
	if _, err := db.NewExec().JoinAggregate(joinSpec(), "nope", "COUNT(*) AS n"); err == nil {
		t.Error("unknown algorithm should error")
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
	e := db.NewExec()
	got, err := e.JoinAggregate(js, "bloom", "COUNT(*) AS n")
	if err != nil {
		t.Fatal(err)
	}
	want, err := db.NewExec().JoinAggregate(joinSpec(), "baseline", "COUNT(*) AS n")
	if err != nil {
		t.Fatal(err)
	}
	if mustInt(got.Rows[0][0]) != mustInt(want.Rows[0][0]) {
		t.Errorf("bitwise bloom join count %v != %v", got.Rows[0][0], want.Rows[0][0])
	}
}

func TestBloomJoinDegradesToFiltered(t *testing.T) {
	db, _ := newTestDB(t)
	js := joinSpec()
	js.LeftFilter = "" // every customer: filter too big for a tiny budget?
	// Force degradation by making the FPR target unreachable: patch the
	// spec to a huge key set via a tiny SQL budget is internal; instead we
	// verify the join still answers correctly with no left filter (the
	// bloom path with all keys, possibly degraded).
	e := db.NewExec()
	got, err := e.JoinAggregate(js, "bloom", "COUNT(*) AS n")
	if err != nil {
		t.Fatal(err)
	}
	want, _ := db.NewExec().JoinAggregate(js, "baseline", "COUNT(*) AS n")
	if mustInt(got.Rows[0][0]) != mustInt(want.Rows[0][0]) {
		t.Errorf("degraded bloom join count %v != %v", got.Rows[0][0], want.Rows[0][0])
	}
}

func TestJoinEmptyBuildSide(t *testing.T) {
	db, _ := newTestDB(t)
	js := joinSpec()
	js.LeftFilter = "bal < -99999"
	got, err := db.NewExec().JoinAggregate(js, "bloom", "COUNT(*) AS n")
	if err != nil {
		t.Fatal(err)
	}
	if mustInt(got.Rows[0][0]) != 0 {
		t.Errorf("empty build side should join to zero rows, got %v", got.Rows[0][0])
	}
}

// --- Section VI: group-by ---

func groupAggs() []GroupAgg {
	return []GroupAgg{
		{Func: sqlparse.AggSum, Expr: "v", As: "total"},
		{Func: sqlparse.AggCount, As: "n"},
	}
}

func TestGroupByAlgorithmsAgree(t *testing.T) {
	db, _ := newTestDB(t)
	run := func(name string, f func(*Exec) (*Relation, error)) *Relation {
		t.Helper()
		e := db.NewExec()
		rel, err := f(e)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return rel
	}
	server := run("server", func(e *Exec) (*Relation, error) {
		return e.ServerSideGroupBy("events", "g", groupAggs(), "")
	})
	filtered := run("filtered", func(e *Exec) (*Relation, error) {
		return e.FilteredGroupBy("events", "g", groupAggs(), "")
	})
	s3side := run("s3side", func(e *Exec) (*Relation, error) {
		return e.S3SideGroupBy("events", "g", groupAggs(), "")
	})
	hybrid := run("hybrid", func(e *Exec) (*Relation, error) {
		return e.HybridGroupBy("events", "g", groupAggs(), HybridGroupByOptions{S3Groups: 4, SampleFraction: 0.05})
	})

	norm := func(rel *Relation) map[string]string {
		out := map[string]string{}
		for _, r := range rel.Rows {
			sum, _ := r[1].Num()
			out[r[0].String()] = fmt.Sprintf("%.1f|%d", sum, mustInt(r[2]))
		}
		return out
	}
	want := norm(server)
	if len(want) != 10 {
		t.Fatalf("expected 10 groups, got %d", len(want))
	}
	for name, rel := range map[string]*Relation{"filtered": filtered, "s3side": s3side, "hybrid": hybrid} {
		if got := norm(rel); !reflect.DeepEqual(got, want) {
			t.Errorf("%s group-by differs:\n got %v\nwant %v", name, got, want)
		}
	}
}

func TestHybridGroupByPartialGroupBy(t *testing.T) {
	st := newTestStore(t)
	db := openTestDB(t, st, s3api.WithCapabilities(
		selectengine.Capabilities{AllowGroupBy: true}))
	e := db.NewExec()
	got, err := e.HybridGroupBy("events", "g", groupAggs(),
		HybridGroupByOptions{S3Groups: 3, SampleFraction: 0.05, UsePartialGroupBy: true})
	if err != nil {
		t.Fatal(err)
	}
	want, err := db.NewExec().ServerSideGroupBy("events", "g", groupAggs(), "")
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("groups = %d, want %d", len(got.Rows), len(want.Rows))
	}
}

func TestS3SideGroupByRejectsMinMax(t *testing.T) {
	db, _ := newTestDB(t)
	_, err := db.NewExec().S3SideGroupBy("events", "g",
		[]GroupAgg{{Func: sqlparse.AggMin, Expr: "v", As: "m"}}, "")
	if err == nil {
		t.Error("MIN cannot be pushed via CASE encoding")
	}
}

// --- Section VII: top-K ---

func TestTopKAlgorithmsAgree(t *testing.T) {
	db, _ := newTestDB(t)
	for _, asc := range []bool{true, false} {
		e1 := db.NewExec()
		server, err := e1.ServerSideTopK("events", "v", 10, asc)
		if err != nil {
			t.Fatal(err)
		}
		e2 := db.NewExec()
		sampled, err := e2.SamplingTopK("events", "v", 10, asc, SamplingTopKOptions{SampleSize: 100})
		if err != nil {
			t.Fatal(err)
		}
		if len(server.Rows) != 10 || len(sampled.Rows) != 10 {
			t.Fatalf("asc=%v: rows %d/%d", asc, len(server.Rows), len(sampled.Rows))
		}
		vi := server.ColIndex("v")
		for i := range server.Rows {
			a, _ := server.Rows[i][vi].Num()
			b, _ := sampled.Rows[i][vi].Num()
			if a != b {
				t.Errorf("asc=%v row %d: server %v sampled %v", asc, i, a, b)
			}
		}
		// Ordering check.
		for i := 1; i < len(server.Rows); i++ {
			c := value.Compare(server.Rows[i-1][vi], server.Rows[i][vi])
			if asc && c > 0 || !asc && c < 0 {
				t.Errorf("asc=%v: rows out of order at %d", asc, i)
			}
		}
	}
}

func TestSamplingTopKAutoSampleSize(t *testing.T) {
	db, _ := newTestDB(t)
	e := db.NewExec()
	got, err := e.SamplingTopK("events", "v", 5, true, SamplingTopKOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != 5 {
		t.Fatalf("rows = %d", len(got.Rows))
	}
}

func TestSamplingTopKDegradesOnTinySample(t *testing.T) {
	db, _ := newTestDB(t)
	e := db.NewExec()
	// K far larger than the sample forces the degraded full-scan path.
	got, err := e.SamplingTopK("events", "v", 50, true, SamplingTopKOptions{SampleSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := db.NewExec().ServerSideTopK("events", "v", 50, true)
	vi := want.ColIndex("v")
	for i := range want.Rows {
		a, _ := want.Rows[i][vi].Num()
		b, _ := got.Rows[i][vi].Num()
		if a != b {
			t.Fatalf("degraded sampling row %d: %v != %v", i, b, a)
		}
	}
}

func TestOptimalSampleSize(t *testing.T) {
	// Paper's worked example: K=100, N=6e7, alpha=0.1 -> ~2.4e5.
	s := OptimalSampleSize(100, 60_000_000, 0.1)
	if s < 240_000 || s > 250_000 {
		t.Errorf("S = %d, want ~245k", s)
	}
	if OptimalSampleSize(10, 5, 1) != 5 {
		t.Error("sample size must clamp to N")
	}
	if OptimalSampleSize(100, 101, 1) < 100 {
		t.Error("sample size must be at least K")
	}
}

// --- metrics sanity ---

func TestMetricsAccumulateAcrossStages(t *testing.T) {
	db, _ := newTestDB(t)
	e := db.NewExec()
	if _, err := e.JoinAggregate(joinSpec(), "bloom", "COUNT(*) AS n"); err != nil {
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
