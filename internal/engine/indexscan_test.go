package engine

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"pushdowndb/internal/cloudsim"
	"pushdowndb/internal/index"
	"pushdowndb/internal/s3api"
	"pushdowndb/internal/store"
)

// idxScale is the simulation scale the index tests plan at: big enough
// that scan dollars and per-range costs dominate request round trips, the
// regime where the paper's index-vs-scan crossover lives.
var idxScale = cloudsim.Scale{DataRatio: 20000, PartRatio: 8}

// newIndexStore builds a wide table whose index is much narrower than the
// data: wide(k INT, v INT, pad CHAR(48)), 4000 rows, v uniform in [0,400),
// partitioned x4.
func newIndexStore(t *testing.T) *store.Store {
	t.Helper()
	st := store.New()
	pad := strings.Repeat("x", 48)
	var rows [][]string
	for i := 0; i < 4000; i++ {
		rows = append(rows, []string{fmt.Sprint(i), fmt.Sprint(i % 400), pad})
	}
	if err := PartitionTable(context.Background(), st, testBucket, "wide", []string{"k", "v", "pad"}, rows, 4); err != nil {
		t.Fatal(err)
	}
	return st
}

func openIndexDB(t *testing.T, st *store.Store, opts ...Option) *DB {
	t.Helper()
	opts = append([]Option{
		WithBackend("s3sim", s3api.NewInProc(st)),
		WithScale(idxScale),
	}, opts...)
	db, err := Open(testBucket, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestCreateIndexPersistsAndRediscovers(t *testing.T) {
	ctx := context.Background()
	st := newIndexStore(t)
	db := openIndexDB(t, st)
	if err := db.CreateIndex(ctx, "wide", "v"); err != nil {
		t.Fatal(err)
	}
	ents := db.Indexes(ctx, "wide")
	if len(ents) != 1 || ents[0].Column != "v" || ents[0].Partitions != 4 {
		t.Fatalf("Indexes = %+v", ents)
	}
	if ents[0].Name != "ix_wide_v" {
		t.Errorf("derived name = %q", ents[0].Name)
	}
	// The index objects are partition-aligned and never show up in the
	// data-partition listing.
	if keys := st.TableParts(testBucket, "wide"); len(keys) != 4 {
		t.Fatalf("data listing polluted: %v", keys)
	}
	if keys := st.List(testBucket, index.Table("wide", "v")+"/part"); len(keys) != 4 {
		t.Fatalf("index objects = %v", keys)
	}

	// A second DB over the same store rediscovers the index from the
	// manifest object alone.
	db2 := openIndexDB(t, st)
	ents = db2.Indexes(ctx, "wide")
	if len(ents) != 1 || ents[0].Name != "ix_wide_v" {
		t.Fatalf("fresh DB did not rediscover the index: %+v", ents)
	}

	// DROP INDEX retires it everywhere a fresh manifest read looks.
	if err := db2.DropNamedIndex(ctx, "wide", "ix_wide_v"); err != nil {
		t.Fatal(err)
	}
	if got := db2.Indexes(ctx, "wide"); len(got) != 0 {
		t.Fatalf("index survived drop: %+v", got)
	}
	db.InvalidateTable("wide") // db's memoized view predates the drop
	if got := db.Indexes(ctx, "wide"); len(got) != 0 {
		t.Fatalf("first DB still sees the dropped index: %+v", got)
	}
	if err := db2.DropIndex(ctx, "wide", "v"); err == nil {
		t.Error("dropping a missing index must fail")
	}
}

// TestForcedIndexScanMatchesPushedScan: a statement forced onto the
// IndexScan answers as it does forced onto the pushed scan, and fetches by
// multi-range GET whenever a row matches.
func TestForcedIndexScanMatchesPushedScan(t *testing.T) {
	ctx := context.Background()
	st := newIndexStore(t)
	db := openIndexDB(t, st)
	if err := db.CreateIndex(ctx, "wide", "v"); err != nil {
		t.Fatal(err)
	}
	for _, pred := range []string{
		"v = 7",
		"v <= 3",
		"v BETWEEN 5 AND 9",
		"v IN (1, 399)",
		"v >= 397 AND k < 3600", // residual conjunct re-applied locally
	} {
		sql := "SELECT k, v FROM wide WHERE " + pred
		viaIndex, e, err := db.QueryForced(ctx, sql, StrategyIndexScan)
		if err != nil {
			t.Fatalf("%s: %v", pred, err)
		}
		viaScan := forcedRel(t, db, StrategyFiltered, sql)
		sameRows(t, pred, viaIndex, viaScan)
		if len(viaIndex.Rows) > 0 && accessOf(e).RangedGets == 0 {
			t.Errorf("%s: matched rows but issued no multi-range GETs", pred)
		}
	}
}

// TestIndexPathsAgreeOverOneIndex is the differential case of the one
// Section IV-A path: the Fig. 1 operator under both of its fetch policies
// and a statement forced onto the IndexScan read the same live index objects and must
// return the row set the pushed scan returns.
func TestIndexPathsAgreeOverOneIndex(t *testing.T) {
	ctx := context.Background()
	st := newIndexStore(t)
	db := openIndexDB(t, st)
	if err := db.CreateIndex(ctx, "wide", "v"); err != nil {
		t.Fatal(err)
	}
	for _, pred := range []string{
		"v = 7",
		"v <= 3",
		"v BETWEEN 5 AND 9",
		"v > 1000", // no match: no fetch at all
		"v >= 2 AND v IN (3, 4, 40)",
	} {
		sql := "SELECT * FROM wide WHERE " + pred
		want := forcedRel(t, db, StrategyBaseline, sql)
		for _, multi := range []bool{false, true} {
			got, err := db.NewExec().IndexFilter(sql, IndexFilterOptions{MultiRange: multi})
			if err != nil {
				t.Fatalf("%s (multi-range %v): %v", pred, multi, err)
			}
			sameRows(t, fmt.Sprintf("%s, IndexFilter multi-range %v", pred, multi), want, got)
		}
		sameRows(t, pred+", forced IndexScan", want, forcedRel(t, db, StrategyIndexScan, sql))
	}
}

// TestIndexFilterRefusesStaleIndex: a table reloaded with different
// partition sizes after its index was built must make the Fig. 1 operator
// refuse — through the manifest's staleness stamps, as the planner's
// IndexScan does — instead of cutting rows at the old byte offsets.
func TestIndexFilterRefusesStaleIndex(t *testing.T) {
	ctx := context.Background()
	st := newIndexStore(t)
	db := openIndexDB(t, st)
	if err := db.CreateIndex(ctx, "wide", "v"); err != nil {
		t.Fatal(err)
	}
	const sql = "SELECT * FROM wide WHERE v = 43"
	rel, err := db.NewExec().IndexFilter(sql, IndexFilterOptions{})
	if err != nil || len(rel.Rows) != 10 {
		t.Fatalf("live index: %v rows, err %v; want 10", rel, err)
	}

	// Reload: other rows, other widths, so every recorded offset is wrong.
	var rows [][]string
	for i := 0; i < 1777; i++ {
		rows = append(rows, []string{fmt.Sprint(i + 100000), fmt.Sprint(i % 1000), "y"})
	}
	if err := PartitionTable(ctx, st, testBucket, "wide", []string{"k", "v", "pad"}, rows, 4); err != nil {
		t.Fatal(err)
	}
	db.InvalidateTable("wide")
	for name, d := range map[string]*DB{"the invalidated DB": db, "a fresh DB": openIndexDB(t, st)} {
		for _, multi := range []bool{false, true} {
			rel, err := d.NewExec().IndexFilter(sql, IndexFilterOptions{MultiRange: multi})
			if s3api.KindOf(err) != s3api.KindBadRequest || !strings.Contains(err.Error(), "the table has no live index") {
				t.Errorf("%s, multi-range %v: stale index served %v (err %v), want a bad_request refusal", name, multi, rel, err)
			}
		}
	}

	// A rebuild makes it live again, over the new bytes.
	if err := db.CreateIndex(ctx, "wide", "v"); err != nil {
		t.Fatal(err)
	}
	rel, err = db.NewExec().IndexFilter(sql, IndexFilterOptions{MultiRange: true})
	if err != nil || len(rel.Rows) != 2 { // i = 43 and 1043
		t.Fatalf("rebuilt index: %v, err %v; want 2 rows", rel, err)
	}
	for _, r := range rel.Rows {
		if n, ok := r[0].IntNum(); !ok || n < 100000 {
			t.Fatalf("row %v is cut from the old table's bytes", r)
		}
	}
}

func TestAccessPlannerPicksIndexThenScan(t *testing.T) {
	ctx := context.Background()
	st := newIndexStore(t)
	db := openIndexDB(t, st)
	if err := db.CreateIndex(ctx, "wide", "v"); err != nil {
		t.Fatal(err)
	}

	// Selective equality: IndexScan must win and actually run.
	rel, e, err := db.QueryContext(context.Background(), "SELECT k FROM wide WHERE v = 123")
	if err != nil {
		t.Fatal(err)
	}
	ap := accessOf(e)
	if ap == nil {
		t.Fatal("no access plan on an indexed table")
	}
	if ap.Strategy != StrategyIndexScan {
		t.Fatalf("selective equality chose %q:\n%s", ap.Strategy, e.QueryPlan())
	}
	if ap.RangedGets == 0 {
		t.Error("executed IndexScan recorded no multi-range GETs")
	}
	if len(rel.Rows) != 10 {
		t.Errorf("v = 123 returned %d rows, want 10", len(rel.Rows))
	}
	if len(ap.Estimates) != 3 {
		t.Errorf("access plan should weigh 3 strategies, got %v", ap.Estimates)
	}

	// Unselective range: the pushed scan (or baseline) must win; the index
	// candidate is still reported.
	_, e2, err := db.QueryContext(context.Background(), "SELECT k FROM wide WHERE v >= 10")
	if err != nil {
		t.Fatal(err)
	}
	ap2 := accessOf(e2)
	if ap2 == nil || ap2.Strategy == StrategyIndexScan {
		t.Fatalf("unselective range must not index-scan: %+v", ap2)
	}

	// Tables without a usable index plan nothing and run the legacy path.
	_, e3, err := db.QueryContext(context.Background(), "SELECT k FROM wide WHERE pad LIKE 'x%'")
	if err != nil {
		t.Fatal(err)
	}
	if accessOf(e3) != nil {
		t.Errorf("non-indexable filter got an access plan: %+v", accessOf(e3))
	}
}

func TestExplainNamesIndexScanAndRangedGets(t *testing.T) {
	ctx := context.Background()
	st := newIndexStore(t)
	db := openIndexDB(t, st)
	if err := db.CreateIndex(ctx, "wide", "v"); err != nil {
		t.Fatal(err)
	}
	out, err := explain(context.Background(), db, "SELECT k FROM wide WHERE v = 123")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, StrategyIndexScan) {
		t.Errorf("Explain does not name the IndexScan strategy:\n%s", out)
	}
	if !strings.Contains(out, "multi-range GET") {
		t.Errorf("Explain does not report the ranged-GET count:\n%s", out)
	}
	// All three strategy estimates are printed.
	for _, s := range []string{StrategyIndexScan, StrategyFiltered, StrategyBaseline} {
		if !strings.Contains(out, "est "+s) {
			t.Errorf("Explain misses the %s estimate:\n%s", s, out)
		}
	}
}

// TestIndexNeverServesStaleRanges is the mutation regression: an index
// must not survive a table reload — byte ranges into rewritten objects
// would return garbage rows.
func TestIndexNeverServesStaleRanges(t *testing.T) {
	ctx := context.Background()
	st := newIndexStore(t)
	db := openIndexDB(t, st, WithResultCache(testCacheBudget))
	if err := db.CreateIndex(ctx, "wide", "v"); err != nil {
		t.Fatal(err)
	}
	// An odd v: the fixture's v = k % 400 is periodic in step with the
	// statistics sample's stride of 2, so the sample holds every row of an
	// even v and none of an odd one. "Under one sample row" keeps the
	// estimate low enough for the index scan this test is about.
	rel, e, err := db.QueryContext(context.Background(), "SELECT k FROM wide WHERE v = 43")
	if err != nil {
		t.Fatal(err)
	}
	if accessOf(e) == nil || accessOf(e).Strategy != StrategyIndexScan {
		t.Fatalf("precondition: the first query must index-scan, got %+v", accessOf(e))
	}
	if len(rel.Rows) != 10 {
		t.Fatalf("pre-reload v = 43 returned %d rows, want 10", len(rel.Rows))
	}

	// Rewrite the table: shifted keys, different row count and offsets.
	var rows [][]string
	pad := strings.Repeat("y", 48)
	for i := 0; i < 1777; i++ {
		rows = append(rows, []string{fmt.Sprint(i + 100000), fmt.Sprint(i % 1000), pad})
	}
	if err := PartitionTable(context.Background(), st, testBucket, "wide", []string{"k", "v", "pad"}, rows, 4); err != nil {
		t.Fatal(err)
	}
	db.InvalidateTable("wide")

	rel2, e2, err := db.QueryContext(context.Background(), "SELECT k FROM wide WHERE v = 2")
	if err != nil {
		t.Fatal(err)
	}
	if ap := accessOf(e2); ap != nil && ap.Strategy == StrategyIndexScan {
		t.Fatalf("stale index used after reload: %+v", ap)
	}
	if len(rel2.Rows) != 2 { // i = 2 and 1002
		t.Fatalf("post-reload v = 2 returned %d rows, want 2 (stale byte ranges?)", len(rel2.Rows))
	}
	for _, r := range rel2.Rows {
		if n, ok := r[0].IntNum(); !ok || n < 100000 {
			t.Fatalf("post-reload row %v is from the old table bytes", r)
		}
	}

	// Rebuilding restores the index access path with the new geometry (a
	// fresh value keeps the comparison scan cold: a warm cached scan would
	// legitimately out-price the index).
	if err := db.CreateIndex(ctx, "wide", "v"); err != nil {
		t.Fatal(err)
	}
	rel3, e3, err := db.QueryContext(context.Background(), "SELECT k FROM wide WHERE v = 3")
	if err != nil {
		t.Fatal(err)
	}
	if ap := accessOf(e3); ap == nil || ap.Strategy != StrategyIndexScan {
		t.Fatalf("rebuilt index not used: %+v", accessOf(e3))
	}
	if len(rel3.Rows) != 2 {
		t.Fatalf("rebuilt index returned %d rows, want 2", len(rel3.Rows))
	}
}

func TestChainJoinOffersIndexScan(t *testing.T) {
	ctx := context.Background()
	st := newIndexStore(t)
	// A tiny driver table joined to wide through a selective indexed
	// filter: the chain step's strategy set must include indexscan, and
	// whichever strategy wins must produce the right rows.
	var drv [][]string
	for i := 0; i < 8; i++ {
		drv = append(drv, []string{fmt.Sprint(i), fmt.Sprint(i * 50)})
	}
	if err := PartitionTable(context.Background(), st, testBucket, "drv", []string{"dk", "dv"}, drv, 2); err != nil {
		t.Fatal(err)
	}
	var mid [][]string
	for i := 0; i < 64; i++ {
		mid = append(mid, []string{fmt.Sprint(i), fmt.Sprint(i % 8)})
	}
	if err := PartitionTable(context.Background(), st, testBucket, "mid", []string{"mk", "dk"}, mid, 2); err != nil {
		t.Fatal(err)
	}
	db := openIndexDB(t, st)
	if err := db.CreateIndex(ctx, "wide", "v"); err != nil {
		t.Fatal(err)
	}
	sql := "SELECT COUNT(*) AS n FROM drv JOIN mid ON drv.dk = mid.dk " +
		"JOIN wide ON mid.mk = wide.v WHERE wide.v <= 2 AND drv.dv <= 400"
	rel, e, err := db.QueryContext(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	plan := e.QueryPlan()
	if plan == nil || len(plan.Steps) != 2 {
		t.Fatalf("expected a 2-step chain plan, got %+v", plan)
	}
	var wideScan *TableScan
	for _, sc := range plan.Scans {
		if sc.Table == "wide" {
			wideScan = sc
		}
	}
	if wideScan == nil || wideScan.Index == nil {
		t.Fatalf("wide scan lost its index candidate: %+v", wideScan)
	}
	chain := plan.Steps[1]
	if _, ok := chain.Estimates[StrategyIndexScan]; !ok {
		t.Fatalf("chain step did not price indexscan: %+v", chain.Estimates)
	}
	// Cross-check the answer against a DB with no index at all.
	stPlain := newIndexStore(t)
	if err := PartitionTable(context.Background(), stPlain, testBucket, "drv", []string{"dk", "dv"}, drv, 2); err != nil {
		t.Fatal(err)
	}
	if err := PartitionTable(context.Background(), stPlain, testBucket, "mid", []string{"mk", "dk"}, mid, 2); err != nil {
		t.Fatal(err)
	}
	want, _, err := openIndexDB(t, stPlain).QueryContext(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Rows[0][0].String() != want.Rows[0][0].String() {
		t.Errorf("indexed chain join count %s != plain %s (strategy %s)",
			rel.Rows[0][0], want.Rows[0][0], chain.Strategy)
	}
}

func TestExecStatementRoutesDDL(t *testing.T) {
	ctx := context.Background()
	st := newIndexStore(t)
	db := openIndexDB(t, st)
	if _, _, err := db.ExecStatement(ctx, "CREATE INDEX myix ON wide (v)"); err != nil {
		t.Fatal(err)
	}
	ents := db.Indexes(ctx, "wide")
	if len(ents) != 1 || ents[0].Name != "myix" {
		t.Fatalf("CREATE INDEX statement did not build: %+v", ents)
	}
	rel, e, err := db.ExecStatement(ctx, "SELECT COUNT(*) AS n FROM wide WHERE v = 1")
	if err != nil || rel == nil || e == nil {
		t.Fatalf("SELECT through ExecStatement: %v", err)
	}
	if _, _, err := db.ExecStatement(ctx, "DROP INDEX myix ON wide"); err != nil {
		t.Fatal(err)
	}
	if got := db.Indexes(ctx, "wide"); len(got) != 0 {
		t.Fatalf("DROP INDEX statement left %+v", got)
	}
}

// TestTableMetaKeyedAsSpelled: tables t and T are two tables — two object
// prefixes — and only t has an index. Planning t first must not hand its
// index to T: T's plan equals a fresh DB's.
func TestTableMetaKeyedAsSpelled(t *testing.T) {
	ctx := context.Background()
	st := store.New()
	var rows [][]string
	for i := 0; i < 400; i++ {
		rows = append(rows, []string{fmt.Sprint(i), fmt.Sprint(i % 40)})
	}
	for _, table := range []string{"t", "T"} {
		if err := PartitionTable(ctx, st, testBucket, table, []string{"k", "v"}, rows, 2); err != nil {
			t.Fatal(err)
		}
	}
	db := openIndexDB(t, st)
	if err := db.CreateIndex(ctx, "t", "k"); err != nil {
		t.Fatal(err)
	}
	if _, e, err := db.QueryContext(ctx, "SELECT k, v FROM t WHERE k = 5"); err != nil || e.QueryPlan().Scans[0].Index == nil {
		t.Fatalf("precondition: t plans with its index: %v", err)
	}
	const sql = "SELECT k, v FROM T WHERE k = 5"
	got, err := explain(ctx, db, sql)
	if err != nil {
		t.Fatal(err)
	}
	want, err := explain(ctx, openIndexDB(t, st), sql)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("T planned after t:\n%s\na fresh DB plans:\n%s", got, want)
	}
}

// manifestGate blocks the first Get of one key until released, having read
// the object before blocking: the read sees the store as it was.
type manifestGate struct {
	s3api.Backend
	key              string
	armed            chan struct{}
	started, release chan struct{}
}

func (g *manifestGate) Get(ctx context.Context, bucket, key string) ([]byte, error) {
	data, err := g.Backend.Get(ctx, bucket, key)
	if key == g.key {
		select {
		case <-g.armed:
			close(g.started)
			<-g.release
		default:
		}
	}
	return data, err
}

// TestManifestReadRacingInvalidateIsForgotten: a manifest read that began
// before a reload and InvalidateTable finishes after them. What it read is
// the pre-reload manifest; the next plan must not use it, and plans as a
// fresh DB does from the rebuilt index.
func TestManifestReadRacingInvalidateIsForgotten(t *testing.T) {
	ctx := context.Background()
	st := newIndexStore(t)
	admin := openIndexDB(t, st)
	if err := admin.CreateIndex(ctx, "wide", "v"); err != nil {
		t.Fatal(err)
	}
	gate := &manifestGate{Backend: s3api.NewInProc(st), key: index.ManifestKey("wide"),
		armed: make(chan struct{}, 1), started: make(chan struct{}), release: make(chan struct{})}
	gate.armed <- struct{}{}
	db, err := Open(testBucket, WithBackend("s3sim", gate), WithScale(idxScale))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error)
	go func() {
		_, err := explain(ctx, db, "SELECT k FROM wide WHERE v = 43")
		done <- err
	}()
	<-gate.started

	// Reload the table with new partition sizes, rebuild its index, and
	// invalidate, all while the read is in flight.
	var rows [][]string
	for i := 0; i < 1777; i++ {
		rows = append(rows, []string{fmt.Sprint(i + 100000), fmt.Sprint(i % 1000), strings.Repeat("y", 48)})
	}
	if err := PartitionTable(ctx, st, testBucket, "wide", []string{"k", "v", "pad"}, rows, 4); err != nil {
		t.Fatal(err)
	}
	admin.InvalidateTable("wide")
	if err := admin.CreateIndex(ctx, "wide", "v"); err != nil {
		t.Fatal(err)
	}
	db.InvalidateTable("wide")
	close(gate.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	const sql = "SELECT k FROM wide WHERE v = 3"
	got, err := explain(ctx, db, sql)
	if err != nil {
		t.Fatal(err)
	}
	want, err := explain(ctx, openIndexDB(t, st), sql)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(want, "IndexScan") {
		t.Fatalf("precondition: a fresh DB index-scans the rebuilt index:\n%s", want)
	}
	if got != want {
		t.Errorf("planned after the racing read:\n%s\na fresh DB plans:\n%s", got, want)
	}
}
