package engine

// Regression tests for the violations the pushdownlint sweep surfaced:
// each pins a nontrivial fix so the invariant holds even if the analyzer
// is ever loosened.

import (
	"context"
	"testing"
	"time"

	"pushdowndb/internal/s3api"
)

// TestExplainHonorsContextDeadline pins the ctxflow fix in EXPLAIN:
// the cached-scan residency probe used to run on context.Background(), so
// a stalled backend listing hung Explain past any caller deadline. Now the
// caller's context reaches the listing and the deadline cuts it.
func TestExplainHonorsContextDeadline(t *testing.T) {
	st := newTestStore(t)
	fault := s3api.NewFault(s3api.NewInProc(st))
	counting := s3api.NewCounting(fault) // counts even calls the fault cuts
	db, err := Open(testBucket, WithBackend("fault", counting), WithResultCache(testCacheBudget))
	if err != nil {
		t.Fatal(err)
	}
	// Warm the result cache: with an empty cache the residency check
	// short-circuits before the backend listing it must be cut from.
	if _, _, err := db.QueryContext(context.Background(), "SELECT * FROM cust WHERE bal <= 0"); err != nil {
		t.Fatal(err)
	}
	if db.resultCache.Len() == 0 {
		t.Fatal("result cache still empty after the warming query")
	}
	listsBefore := counting.Lists()

	fault.OnOps("list")
	fault.StallFor(30 * time.Second)

	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, eerr := explain(ctx, db, "SELECT * FROM cust WHERE bal <= 0")
	elapsed := time.Since(start)

	if counting.Lists() == listsBefore {
		t.Fatal("Explain never reached the backend listing; the stall was not exercised")
	}
	// The cut may surface as an error (access planning) or as a silent 0%
	// cached report (residency probe): promptness is the invariant.
	if elapsed > 5*time.Second {
		t.Fatalf("EXPLAIN ran %v against a stalled listing (err=%v); the deadline did not cut the probe", elapsed, eerr)
	}
}

// TestUnknownTableErrorCarriesNotFoundKind pins the errkind fix in
// DB.parts: a query over a missing table must carry s3api.KindNotFound so
// the server reports it as the client's mistake, not a 500.
func TestUnknownTableErrorCarriesNotFoundKind(t *testing.T) {
	db, _ := newTestDB(t)
	_, _, err := db.QueryContext(context.Background(), "SELECT * FROM nosuchtable")
	if err == nil {
		t.Fatal("query over a missing table succeeded")
	}
	if !s3api.IsNotFound(err) {
		t.Fatalf("unknown table error kind = %q, want %q (err: %v)", s3api.KindOf(err), s3api.KindNotFound, err)
	}
}
