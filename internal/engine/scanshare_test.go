package engine

import (
	"context"
	"sync"
	"testing"
	"time"

	"pushdowndb/internal/s3api"
	"pushdowndb/internal/scanshare"
)

// TestScanSharingDifferential drives N concurrent queries — some identical,
// some merge-compatible scans on the same table — through a scan-sharing DB
// and checks that every relation matches the answer the same query gets on a
// plain DB, while the shared backend saw strictly fewer Selects than the
// plain one. Run under -race this also exercises the coordinator's
// publish/handoff paths from many goroutines.
func TestScanSharingDifferential(t *testing.T) {
	st := newTestStore(t)

	// cust and ords have no secondary indexes, so these queries always take
	// the pushed-scan path where sharing applies.
	queries := []string{
		"SELECT ck, bal FROM cust WHERE bal > 0",
		"SELECT ck, bal FROM cust WHERE bal > 0",
		"SELECT ck, bal FROM cust WHERE bal > 0",
		"SELECT ok, price FROM ords WHERE price < 100",
		"SELECT ok, price FROM ords WHERE price > 400",
		"SELECT ck FROM ords WHERE ok < 50",
		"SELECT COUNT(*) FROM cust",
		"SELECT COUNT(*) FROM cust",
	}

	direct := openTestDB(t, st)
	directCounting := s3api.NewCounting(s3api.NewInProc(st))
	directDB, err := Open(testBucket, WithBackend("s3sim", directCounting))
	if err != nil {
		t.Fatal(err)
	}
	want := make([]*Relation, len(queries))
	for i, q := range queries {
		rel, _, err := direct.QueryContext(context.Background(), q)
		if err != nil {
			t.Fatalf("direct %q: %v", q, err)
		}
		want[i] = rel
		// Re-run on the counting DB purely to measure how many Selects the
		// workload costs without sharing.
		if _, _, err := directDB.QueryContext(context.Background(), q); err != nil {
			t.Fatalf("direct counting %q: %v", q, err)
		}
	}

	counting := s3api.NewCounting(s3api.NewInProc(st))
	shared, err := Open(testBucket,
		WithBackend("s3sim", counting),
		WithScanSharing(scanshare.Config{Window: 500 * time.Millisecond}),
	)
	if err != nil {
		t.Fatal(err)
	}

	got := make([]*Relation, len(queries))
	errs := make([]error, len(queries))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i, q := range queries {
		wg.Add(1)
		go func(i int, q string) {
			defer wg.Done()
			<-start
			got[i], _, errs[i] = shared.QueryContext(context.Background(), q)
		}(i, q)
	}
	close(start)
	wg.Wait()

	for i, q := range queries {
		if errs[i] != nil {
			t.Fatalf("shared %q: %v", q, errs[i])
		}
		sameRows(t, q, want[i], got[i])
	}

	if s, d := counting.Selects(), directCounting.Selects(); s >= d {
		t.Fatalf("shared backend saw %d Selects, want fewer than the %d an unshared run issues", s, d)
	}
	stats, ok := shared.ScanShareStats()
	if !ok {
		t.Fatal("ScanShareStats: not enabled on a sharing DB")
	}
	if stats.Coalesced == 0 {
		t.Fatalf("no requests coalesced: %+v", stats)
	}
	if stats.BackendSelects >= stats.Selects {
		t.Fatalf("backend selects %d not below coordinated selects %d", stats.BackendSelects, stats.Selects)
	}
	if _, ok := direct.ScanShareStats(); ok {
		t.Fatal("ScanShareStats: reported enabled on a plain DB")
	}
}

// TestScanSharingComposesWithResultCache checks the cache/share interplay:
// concurrent misses share one refill, only the leader fills the cache, the
// other sharers are recorded as in-flight dedups, and a later identical
// query is a pure cache hit that never reaches the coordinator.
func TestScanSharingComposesWithResultCache(t *testing.T) {
	st := newTestStore(t)
	counting := s3api.NewCounting(s3api.NewInProc(st))
	db, err := Open(testBucket,
		WithBackend("s3sim", counting),
		WithResultCache(64<<20),
		WithScanSharing(scanshare.Config{Window: 500 * time.Millisecond}),
	)
	if err != nil {
		t.Fatal(err)
	}

	const q = "SELECT ck, bal FROM cust WHERE bal > 0"
	const clients = 4
	rels := make([]*Relation, clients)
	errs := make([]error, clients)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			rels[i], _, errs[i] = db.QueryContext(context.Background(), q)
		}(i)
	}
	close(start)
	wg.Wait()
	for i := 0; i < clients; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		sameRows(t, q, rels[0], rels[i])
	}

	cs, ok := db.ResultCacheStats()
	if !ok {
		t.Fatal("result cache not enabled")
	}
	if cs.InflightDedup == 0 {
		t.Fatalf("expected in-flight dedups from concurrent misses, got stats %+v", cs)
	}

	before := db.scanShare.Stats().Selects
	if _, _, err := db.QueryContext(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	cs2, _ := db.ResultCacheStats()
	if cs2.Hits <= cs.Hits {
		t.Fatalf("warm re-run did not hit the cache: %+v -> %+v", cs, cs2)
	}
	if after := db.scanShare.Stats().Selects; after != before {
		t.Fatalf("cache hit reached the coordinator: selects %d -> %d", before, after)
	}

	// Invalidation must split shares from the stale generation: the next
	// query refetches rather than reusing a stale pass or cache entry.
	selectsBefore := counting.Selects()
	db.InvalidateTable("cust")
	if _, _, err := db.QueryContext(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	if counting.Selects() <= selectsBefore {
		t.Fatal("query after InvalidateTable did not reach the backend")
	}
}
