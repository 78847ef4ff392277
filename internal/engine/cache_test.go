package engine

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"pushdowndb/internal/cloudsim"
	"pushdowndb/internal/s3api"
	"pushdowndb/internal/store"
)

const testCacheBudget = 64 << 20

// cachedTestDB opens the shared test store behind a counting backend with
// the result cache on, so tests can assert wire-level request counts.
func cachedTestDB(t *testing.T, opts ...Option) (*DB, *s3api.Counting) {
	t.Helper()
	st := newTestStore(t)
	counting := s3api.NewCounting(s3api.NewInProc(st))
	all := append([]Option{
		WithBackend("s3sim", counting),
		WithResultCache(testCacheBudget),
	}, opts...)
	db, err := Open(testBucket, all...)
	if err != nil {
		t.Fatal(err)
	}
	return db, counting
}

// TestWarmJoinRepeatIssuesNoBackendSelects is the acceptance check for the
// result cache: repeating a TPC-H-style join query against a warm cache
// must reach the backend with zero Select requests, and both the virtual
// clock and the bill must come down.
func TestWarmJoinRepeatIssuesNoBackendSelects(t *testing.T) {
	db, counting := cachedTestDB(t, WithScale(bigSim()))
	sql := "SELECT SUM(o.price) AS total, COUNT(*) AS n FROM cust c JOIN ords o ON c.ck = o.ck WHERE c.bal <= -500"

	cold, e1, err := db.QueryContext(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	coldSelects := counting.Selects()
	if coldSelects == 0 {
		t.Fatalf("cold run issued no Select requests; the plan (%s) exercises nothing the cache could serve",
			e1.QueryPlan().Steps[0].Strategy)
	}

	warm, e2, err := db.QueryContext(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	if d := counting.Selects() - coldSelects; d != 0 {
		t.Errorf("warm repeat issued %d backend Select requests, want 0", d)
	}
	hits, bytes := e2.Metrics.CacheTotals()
	if hits == 0 || bytes == 0 {
		t.Errorf("warm run metrics recorded %d cache hits / %d bytes, want > 0", hits, bytes)
	}
	if h1, _ := e1.Metrics.CacheTotals(); h1 != 0 {
		t.Errorf("cold run recorded %d cache hits, want 0", h1)
	}
	sameRows(t, "cold vs warm", cold, warm)

	if c1, c2 := e1.Cost().Total(), e2.Cost().Total(); c2 >= c1 {
		t.Errorf("warm cost $%.8f is not below cold cost $%.8f", c2, c1)
	}
	if r1, r2 := e1.RuntimeSeconds(), e2.RuntimeSeconds(); r2 >= r1 {
		t.Errorf("warm runtime %.3fs is not below cold runtime %.3fs", r2, r1)
	}
}

// TestWarmRepeatSingleTable: the single-table pushdown path (filter +
// group-by) is served from cache on repeat too.
func TestWarmRepeatSingleTable(t *testing.T) {
	db, counting := cachedTestDB(t)
	sql := "SELECT g, COUNT(*) AS n, SUM(v) AS s FROM events WHERE v >= 0 GROUP BY g ORDER BY g"
	cold, _, err := db.QueryContext(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	coldSelects := counting.Selects()
	warm, e2, err := db.QueryContext(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	if d := counting.Selects() - coldSelects; d != 0 {
		t.Errorf("warm repeat issued %d Select requests, want 0", d)
	}
	if hits, _ := e2.Metrics.CacheTotals(); hits == 0 {
		t.Error("warm run recorded no cache hits")
	}
	if cold.String() != warm.String() {
		t.Errorf("warm answer differs:\ncold:\n%s\nwarm:\n%s", cold, warm)
	}
}

// TestCacheOffByDefault: without WithResultCache nothing is cached and
// repeats pay full price (the pre-cache behaviour).
func TestCacheOffByDefault(t *testing.T) {
	st := newTestStore(t)
	counting := s3api.NewCounting(s3api.NewInProc(st))
	db, err := Open(testBucket, WithBackend("s3sim", counting))
	if err != nil {
		t.Fatal(err)
	}
	sql := "SELECT k FROM events WHERE v >= 49"
	if _, _, err := db.QueryContext(context.Background(), sql); err != nil {
		t.Fatal(err)
	}
	coldSelects := counting.Selects()
	if _, e, err := db.QueryContext(context.Background(), sql); err != nil {
		t.Fatal(err)
	} else if hits, _ := e.Metrics.CacheTotals(); hits != 0 {
		t.Errorf("cache hits with caching off: %d", hits)
	}
	if d := counting.Selects() - coldSelects; d != coldSelects {
		t.Errorf("uncached repeat issued %d Selects, want %d (same as cold)", d, coldSelects)
	}
	if _, ok := db.ResultCacheStats(); ok {
		t.Error("ResultCacheStats reported a cache on an uncached DB")
	}
}

// TestReloadedTableNeverServesStaleRows is the invalidation-contract
// regression test: after a table's partitions are rewritten, InvalidateStats
// (or InvalidateTable) must prevent any query from seeing pre-reload rows.
func TestReloadedTableNeverServesStaleRows(t *testing.T) {
	st := store.New()
	load := func(vals ...string) {
		var rows [][]string
		for _, v := range vals {
			rows = append(rows, []string{v})
		}
		if err := PartitionTable(context.Background(), st, testBucket, "mut", []string{"v"}, rows, 2); err != nil {
			t.Fatal(err)
		}
	}
	load("old1", "old2", "old3", "old4")
	counting := s3api.NewCounting(s3api.NewInProc(st))
	db, err := Open(testBucket, WithBackend("s3sim", counting), WithResultCache(testCacheBudget))
	if err != nil {
		t.Fatal(err)
	}
	const sql = "SELECT v FROM mut"
	query := func() string {
		rel, _, err := db.QueryContext(context.Background(), sql)
		if err != nil {
			t.Fatal(err)
		}
		return strings.Join(sortedRows(rel), ",")
	}
	if got := query(); !strings.Contains(got, "old1") {
		t.Fatalf("setup: got %s", got)
	}

	// Reload WITHOUT invalidating: the repeat is served from cache and
	// still shows the old rows — this is exactly why the contract requires
	// an invalidation call after mutating a table.
	load("new1", "new2", "new3", "new4")
	if got := query(); !strings.Contains(got, "old1") {
		t.Fatalf("cache did not serve the repeat at all (got %s); the invalidation test proves nothing", got)
	}

	db.InvalidateStats()
	if got := query(); strings.Contains(got, "old") {
		t.Errorf("stale rows after InvalidateStats: %s", got)
	}

	// Targeted variant: InvalidateTable drops only the named table.
	load("v3a", "v3b", "v3c", "v3d")
	db.InvalidateTable("mut")
	if got := query(); strings.Contains(got, "new") || strings.Contains(got, "old") {
		t.Errorf("stale rows after InvalidateTable: %s", got)
	}
}

// TestInvalidateTableScopes: invalidating one table leaves another table's
// cached scans resident.
func TestInvalidateTableScopes(t *testing.T) {
	db, counting := cachedTestDB(t)
	warm := func(sql string) {
		if _, _, err := db.QueryContext(context.Background(), sql); err != nil {
			t.Fatal(err)
		}
	}
	custSQL := "SELECT ck FROM cust WHERE bal <= 0"
	eventsSQL := "SELECT k FROM events WHERE v >= 0"
	warm(custSQL)
	warm(eventsSQL)
	db.InvalidateTable("cust")

	before := counting.Selects()
	warm(eventsSQL) // still cached
	if d := counting.Selects() - before; d != 0 {
		t.Errorf("events repeat after invalidating cust issued %d Selects, want 0", d)
	}
	before = counting.Selects()
	warm(custSQL) // dropped, must re-scan
	if d := counting.Selects() - before; d == 0 {
		t.Error("cust repeat after InvalidateTable was served from cache")
	}
}

// TestPlannerFlipsToFilteredWhenProbeResident: the chain-join planner must
// flip from the Bloom probe to the plain filtered scan once the probe
// table's pushed scan is resident in the result cache. The string join key
// makes the cold Bloom plan fall back to a filtered scan at run time, which
// is what fills the cache with exactly the scan the warm plan then prices
// as free.
func TestPlannerFlipsToFilteredWhenProbeResident(t *testing.T) {
	st := store.New()
	var ta, tb, tc [][]string
	for i := 0; i < 60; i++ {
		ta = append(ta, []string{fmt.Sprint(i), fmt.Sprint(i)})
	}
	for i := 0; i < 300; i++ {
		tb = append(tb, []string{fmt.Sprint(i), fmt.Sprint(i % 60), fmt.Sprintf("s%03d", i%50)})
	}
	// tc is wide (fat pad column): its scan cost is transfer-dominated, the
	// regime where serving the probe scan from cache decides the strategy.
	pad := strings.Repeat("x", 500)
	for i := 0; i < 100; i++ {
		tc = append(tc, []string{fmt.Sprintf("s%03d", i), fmt.Sprint(i * 2), pad})
	}
	for _, tbl := range []struct {
		name   string
		header []string
		rows   [][]string
	}{
		{"ta", []string{"ak", "af"}, ta},
		{"tb", []string{"bk", "ak", "sk"}, tb},
		{"tc", []string{"sk", "cv", "pad"}, tc},
	} {
		if err := PartitionTable(context.Background(), st, testBucket, tbl.name, tbl.header, tbl.rows, 2); err != nil {
			t.Fatal(err)
		}
	}
	counting := s3api.NewCounting(s3api.NewInProc(st,
		s3api.WithProfile(cloudsim.CrossRegionS3Profile())))
	db, err := Open(testBucket,
		WithBackend("xr", counting),
		WithResultCache(testCacheBudget),
		WithScale(bigSim()))
	if err != nil {
		t.Fatal(err)
	}
	sql := "SELECT COUNT(*) AS n FROM ta JOIN tb ON ta.ak = tb.ak JOIN tc ON tb.sk = tc.sk WHERE ta.af <= 9"

	coldPlan, _, err := planOf(db, sql)
	if err != nil {
		t.Fatal(err)
	}
	chain := coldPlan.Steps[1]
	if chain.Strategy != StrategyBloom {
		t.Fatalf("cold chain strategy = %s, want bloom (estimates %+v) — the flip test needs a cold Bloom plan",
			chain.Strategy, chain.Estimates)
	}

	cold, e1, err := db.QueryContext(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	// The string key degrades the executed Bloom probe to a filtered scan,
	// which caches tc's plain pushed scan.
	if got := e1.QueryPlan().Steps[1]; got.Strategy != StrategyFiltered ||
		!strings.Contains(got.Reason, "fell back") {
		t.Fatalf("cold execution did not fall back to filtered: %s (%s)", got.Strategy, got.Reason)
	}

	warmPlan, _, err := planOf(db, sql)
	if err != nil {
		t.Fatal(err)
	}
	wchain := warmPlan.Steps[1]
	if wchain.Strategy != StrategyFiltered {
		t.Errorf("warm chain strategy = %s, want filtered (probe scan is resident)\nestimates: %+v",
			wchain.Strategy, wchain.Estimates)
	}
	tcScan := warmPlan.Scans[2]
	if tcScan.Table != "tc" {
		t.Fatalf("scan order changed: %+v", warmPlan.Scans)
	}
	if tcScan.Stats.CachedFrac != 1 {
		t.Errorf("tc CachedFrac = %.2f, want 1", tcScan.Stats.CachedFrac)
	}
	if s := warmPlan.String(); !strings.Contains(s, "cached scan 100%") {
		t.Errorf("plan tree does not surface the cached scan:\n%s", s)
	}

	warm, e2, err := db.QueryContext(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, "cold vs warm", cold, warm)
	if hits, _ := e2.Metrics.CacheTotals(); hits == 0 {
		t.Error("warm execution recorded no cache hits")
	}
}

// TestExplainShowsCachedScanSingleTable: db.Explain marks a resident
// single-table pushdown as a cached scan.
func TestExplainShowsCachedScanSingleTable(t *testing.T) {
	db, _ := cachedTestDB(t)
	sql := "SELECT g, COUNT(*) AS n FROM events WHERE v >= 0 GROUP BY g"
	before, err := explain(context.Background(), db, sql)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(before, "cached scan") {
		t.Fatalf("cold Explain already claims a cached scan:\n%s", before)
	}
	if _, _, err := db.QueryContext(context.Background(), sql); err != nil {
		t.Fatal(err)
	}
	after, err := explain(context.Background(), db, sql)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(after, "cached scan 100%") {
		t.Errorf("warm Explain does not mark the cached scan:\n%s", after)
	}
}
