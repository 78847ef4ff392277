package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pushdowndb/internal/cloudsim"
	"pushdowndb/internal/s3api"
	"pushdowndb/internal/selectengine"
	"pushdowndb/internal/store"
)

// --- forEachPart: cancellation on the first error and by the caller ---

// gatedBackend wraps a backend so Get calls can be counted and stalled
// until their context dies.
type gatedBackend struct {
	s3api.Backend
	gets    int32
	stall   bool  // block Gets until ctx is done
	failGet int32 // 1-indexed call number to fail (0 = never)
}

func (g *gatedBackend) Get(ctx context.Context, bucket, key string) ([]byte, error) {
	n := atomic.AddInt32(&g.gets, 1)
	if n == g.failGet {
		return nil, fmt.Errorf("injected get failure #%d on %s", n, key)
	}
	if g.stall {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	return g.Backend.Get(ctx, bucket, key)
}

// manyPartsDB builds a small table split into many partitions behind the
// gated backend.
func manyPartsDB(t *testing.T, g *gatedBackend, parts int) *DB {
	t.Helper()
	st := store.New()
	var rows [][]string
	for i := 0; i < parts*4; i++ {
		rows = append(rows, []string{fmt.Sprint(i)})
	}
	if err := PartitionTable(context.Background(), st, testBucket, "wide", []string{"x"}, rows, parts); err != nil {
		t.Fatal(err)
	}
	g.Backend = s3api.NewInProc(st)
	db, err := Open(testBucket, WithBackend("gated", g))
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestCanceledContextAbortsScan: the GETs of a multi-partition load stall
// until their context dies. Canceling the query context mid-scan, or one
// partition's GET failing, must release every call in flight promptly, with
// the cause — the cancellation or the first error — in the returned error.
func TestCanceledContextAbortsScan(t *testing.T) {
	for _, tc := range []struct {
		name    string
		failGet int32
		want    func(error) bool
	}{
		{"caller cancels", 0, func(err error) bool { return errors.Is(err, context.Canceled) }},
		{"first error cancels", 5, func(err error) bool {
			return err != nil && strings.Contains(err.Error(), "injected get failure #5")
		}},
	} {
		g := &gatedBackend{stall: true, failGet: tc.failGet}
		db := manyPartsDB(t, g, 16)
		ctx, cancel := context.WithCancel(context.Background())
		e := db.NewExecContext(ctx)

		done := make(chan error, 1)
		go func() {
			_, err := e.LoadTable("load", e.NextStage(), "wide")
			done <- err
		}()
		if tc.failGet == 0 {
			// Let the stalled partitions start, then cancel.
			time.Sleep(20 * time.Millisecond)
			cancel()
		}
		select {
		case err := <-done:
			if !tc.want(err) {
				t.Fatalf("%s: err = %v", tc.name, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: the stalled GETs were not released", tc.name)
		}
		cancel()
	}
}

// TestQueryContextCancellation: the public QueryContext surface honours
// cancellation too.
func TestQueryContextCancellation(t *testing.T) {
	db, _ := newTestDB(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := db.QueryContext(ctx, "SELECT COUNT(*) AS n FROM events")
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// --- TableHeader growth past the fixed probe (satellite) ---

func TestTableHeaderWiderThanProbe(t *testing.T) {
	st := store.New()
	// A header row far wider than the 4096-byte probe.
	var cols []string
	for i := 0; i < 600; i++ {
		cols = append(cols, fmt.Sprintf("very_long_column_name_number_%04d", i))
	}
	rows := [][]string{make([]string, len(cols))}
	for i := range cols {
		rows[0][i] = fmt.Sprint(i)
	}
	if err := PartitionTable(context.Background(), st, testBucket, "widehdr", cols, rows, 1); err != nil {
		t.Fatal(err)
	}
	db := openTestDB(t, st)
	e := db.NewExec()
	got, err := e.TableHeader("hdr", e.NextStage(), "widehdr")
	if err != nil {
		t.Fatalf("wide header: %v", err)
	}
	if len(got) != len(cols) || got[0] != cols[0] || got[len(got)-1] != cols[len(cols)-1] {
		t.Fatalf("header = %d cols, want %d", len(got), len(cols))
	}
	// And the whole query path over it still works.
	rel, _, err := db.QueryContext(context.Background(), "SELECT "+cols[599]+" FROM widehdr")
	if err != nil || len(rel.Rows) != 1 {
		t.Fatalf("query over wide-header table: %v %v", rel, err)
	}
}

func TestTableHeaderHeaderOnlyObjectNoNewline(t *testing.T) {
	st := store.New()
	// A single partition holding just a header line with no trailing \n.
	st.Put(testBucket, "bare/part0000.csv", []byte("a,b,c"))
	db := openTestDB(t, st)
	e := db.NewExec()
	got, err := e.TableHeader("hdr", e.NextStage(), "bare")
	if err != nil || len(got) != 3 || got[2] != "c" {
		t.Fatalf("header = %v, %v", got, err)
	}
}

// --- multi-backend DB: catalog, options, cross-backend joins ---

func TestOpenValidation(t *testing.T) {
	st := store.New()
	if _, err := Open("b"); err == nil {
		t.Error("Open without backends must fail")
	}
	if _, err := Open("b",
		WithBackend("a", s3api.NewInProc(st)),
		WithDefaultBackend("nope")); err == nil {
		t.Error("unknown default backend must fail")
	}
	if _, err := Open("b",
		WithBackend("a", s3api.NewInProc(st)),
		WithTableBackend("t", "nope")); err == nil {
		t.Error("catalog referencing an unknown backend must fail")
	}
	if _, err := Open("b",
		WithBackend("a", s3api.NewInProc(st)),
		WithBackend("a", s3api.NewInProc(st))); err == nil {
		t.Error("duplicate backend name must fail")
	}
}

// TestCrossBackendJoin loads the two join tables on two different
// backends and checks the planned SQL join still matches the single-
// backend answer.
func TestCrossBackendJoin(t *testing.T) {
	st := newTestStore(t) // cust + ords together (reference)
	ref := openTestDB(t, st)
	want, _, err := ref.QueryContext(context.Background(),
		"SELECT COUNT(*) AS n, SUM(o.price) AS total FROM cust c JOIN ords o ON c.ck = o.ck WHERE c.bal <= -500")
	if err != nil {
		t.Fatal(err)
	}

	// Split: cust stays on the first store, ords moves to a second one.
	st2 := store.New()
	for _, key := range st.TableParts(testBucket, "ords") {
		data, err := st.Get(testBucket, key)
		if err != nil {
			t.Fatal(err)
		}
		st2.Put(testBucket, key, data)
		st.Delete(testBucket, key)
	}
	db, err := Open(testBucket,
		WithBackend("first", s3api.NewInProc(st)),
		WithBackend("second", s3api.NewInProc(st2)),
		WithTableBackend("ords", "second"))
	if err != nil {
		t.Fatal(err)
	}
	got, e, err := db.QueryContext(context.Background(),
		"SELECT COUNT(*) AS n, SUM(o.price) AS total FROM cust c JOIN ords o ON c.ck = o.ck WHERE c.bal <= -500")
	if err != nil {
		t.Fatal(err)
	}
	assertSameAgg(t, got, want)
	// The plan records which backend each scan ran against.
	plan := e.QueryPlan()
	backends := map[string]string{}
	for _, sc := range plan.Scans {
		backends[sc.Table] = sc.Backend
	}
	if backends["cust"] != "first" || backends["ords"] != "second" {
		t.Errorf("scan backends = %v", backends)
	}
}

// TestTableBackendKeyedAsSpelled: the table-to-backend catalog keys a table
// as it is spelled, as its object keys and per-table metadata do. Table t
// lives on the default backend and T on the one WithTableBackend maps it
// to; each is read from its own backend.
func TestTableBackendKeyedAsSpelled(t *testing.T) {
	ctx := context.Background()
	stores := map[string]*store.Store{"t": store.New(), "T": store.New()}
	for table, n := range map[string]int{"t": 30, "T": 70} {
		var rows [][]string
		for i := 0; i < n; i++ {
			rows = append(rows, []string{fmt.Sprint(i)})
		}
		if err := PartitionTable(ctx, stores[table], testBucket, table, []string{"k"}, rows, 2); err != nil {
			t.Fatal(err)
		}
	}
	db, err := Open(testBucket, WithBackend("a", s3api.NewInProc(stores["t"])),
		WithBackend("b", s3api.NewInProc(stores["T"])), WithTableBackend("T", "b"))
	if err != nil {
		t.Fatal(err)
	}
	for table, want := range map[string]string{"t": "[[30]]", "T": "[[70]]"} {
		rel, _, err := db.QueryContext(ctx, "SELECT COUNT(*) FROM "+table)
		if err != nil {
			t.Fatalf("COUNT(*) FROM %s: %v", table, err)
		}
		if got := fmt.Sprint(rel.Rows); got != want {
			t.Errorf("COUNT(*) FROM %s = %s, want %s", table, got, want)
		}
	}
}

// --- per-backend planner pricing (tentpole acceptance) ---

// wanProfile models a congested thin-WAN remote object store: 2 MB/s to
// the compute node, 50 ms round trips, egress billed per GB.
func wanProfile() cloudsim.Profile {
	return cloudsim.Profile{
		Name:               "thin-wan",
		NetworkBytesPerSec: 2e6,
		RequestRTTSec:      0.05,
		RequestPer1000:     0.0004,
		ScanPerGB:          0.002,
		ReturnPerGB:        0.0007,
		TransferPerGB:      0.09,
	}
}

// TestPlannerBackendProfileFlipsStrategy: the same join over the same data
// must pick different strategies on a fast in-region backend vs a slow
// metered remote one — the planner prices per backend now. At this scale
// the baseline join's full-table GETs are cheap over the in-region link
// but dominate runtime and egress dollars over the thin WAN, where
// shrinking the transfer with the Bloom pushdown pays for its extra stage.
func TestPlannerBackendProfileFlipsStrategy(t *testing.T) {
	sql := "SELECT SUM(o.price) AS total FROM cust c JOIN ords o ON c.ck = o.ck WHERE c.bal <= -500"

	strategyOn := func(profile cloudsim.Profile) string {
		t.Helper()
		st := newTestStore(t)
		db := openTestDB(t, st, s3api.WithProfile(profile))
		db.Sim = cloudsim.Scale{DataRatio: 80, PartRatio: 4}
		plan, _, err := planOf(db, sql)
		if err != nil {
			t.Fatal(err)
		}
		if plan == nil || len(plan.Steps) != 1 {
			t.Fatalf("plan = %+v", plan)
		}
		return plan.Steps[0].Strategy
	}

	fast := strategyOn(cloudsim.S3Profile())
	slow := strategyOn(wanProfile())
	if fast == slow {
		t.Fatalf("strategy %q chosen for both the in-region and the thin-WAN profile; the planner must react to the backend", fast)
	}
	if fast != StrategyBaseline {
		t.Errorf("fast in-region backend chose %q, expected the baseline full-load join", fast)
	}
	if slow != StrategyBloom {
		t.Errorf("slow remote backend chose %q, expected the Bloom pushdown join", slow)
	}
}

// TestCostUsesBackendRates: the same bytes cost different dollars on
// different backends (free local vs metered cross-region egress).
func TestCostUsesBackendRates(t *testing.T) {
	run := func(profile cloudsim.Profile) cloudsim.CostBreakdown {
		t.Helper()
		st := newTestStore(t)
		db := openTestDB(t, st, s3api.WithProfile(profile))
		_, e, err := db.QueryForced(context.Background(), "SELECT * FROM events WHERE v < 0", StrategyBaseline)
		if err != nil {
			t.Fatal(err)
		}
		return e.Cost()
	}
	local := run(cloudsim.LocalFSProfile())
	remote := run(cloudsim.CrossRegionS3Profile())
	if local.RequestUSD != 0 || local.TransferUSD != 0 || local.ScanUSD != 0 {
		t.Errorf("local backend should bill nothing for storage: %+v", local)
	}
	if remote.TransferUSD <= 0 {
		t.Errorf("cross-region GETs should bill egress: %+v", remote)
	}
	if remote.RequestUSD <= 0 {
		t.Errorf("cross-region requests should bill: %+v", remote)
	}
}

// TestSelectCapabilitiesComeFromBackend: the engine asks the backend for
// its capability set instead of a DB-level flag.
func TestSelectCapabilitiesComeFromBackend(t *testing.T) {
	st := newTestStore(t)
	plain := openTestDB(t, st)
	// Without the capability, the partial group-by path must be rejected.
	_, err := plain.NewExec().HybridGroupBy(groupSQL("events", "g"),
		HybridGroupByOptions{S3Groups: 3, UsePartialGroupBy: true})
	if err == nil {
		t.Fatal("partial group-by without the backend capability should fail")
	}
	enabled := openTestDB(t, st, s3api.WithCapabilities(
		selectengine.Capabilities{AllowGroupBy: true}))
	if _, err := enabled.NewExec().HybridGroupBy(groupSQL("events", "g"),
		HybridGroupByOptions{S3Groups: 3, UsePartialGroupBy: true}); err != nil {
		t.Fatalf("capability-advertising backend: %v", err)
	}
}
