package engine

import (
	"context"
	"sync"
	"testing"

	"pushdowndb/internal/s3api"
	"pushdowndb/internal/store"
)

type hookRecord struct {
	sql     string
	hasExec bool
	err     error
	ctxVal  any
}

type hookCtxKey struct{}

func hookDB(t *testing.T) (*DB, *[]hookRecord, *sync.Mutex) {
	t.Helper()
	st := store.New()
	header := []string{"id", "v"}
	rows := [][]string{{"1", "10"}, {"2", "20"}, {"3", "30"}}
	if err := PartitionTable(context.Background(), st, "bkt", "t", header, rows, 2); err != nil {
		t.Fatal(err)
	}
	var (
		mu   sync.Mutex
		recs []hookRecord
	)
	db, err := Open("bkt", WithBackend("s3sim", s3api.NewInProc(st)))
	if err != nil {
		t.Fatal(err)
	}
	db.SetQueryHook(func(ctx context.Context, sql string, e *Exec, err error) {
		mu.Lock()
		recs = append(recs, hookRecord{sql: sql, hasExec: e != nil, err: err, ctxVal: ctx.Value(hookCtxKey{})})
		mu.Unlock()
	})
	return db, &recs, &mu
}

// TestQueryHookFiresOnEveryEntryPoint pins the audit surface a query
// server builds on: the hook observes successful queries (with their
// Exec), parse rejections (nil Exec), and statements run through
// ExecStatement — exactly once each, with the caller's context values
// visible.
func TestQueryHookFiresOnEveryEntryPoint(t *testing.T) {
	db, recs, mu := hookDB(t)
	ctx := context.WithValue(context.Background(), hookCtxKey{}, "tenant-42")

	if _, _, err := db.QueryContext(ctx, "SELECT id FROM t WHERE v > 15"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.QueryContext(ctx, "SELEKT nope"); err == nil {
		t.Fatal("bad SQL should fail")
	}
	if _, _, err := db.ExecStatement(ctx, "SELECT COUNT(*) AS n FROM t"); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(*recs) != 3 {
		t.Fatalf("hook fired %d times, want 3: %+v", len(*recs), *recs)
	}
	got := *recs
	if !got[0].hasExec || got[0].err != nil || got[0].ctxVal != "tenant-42" {
		t.Fatalf("success record: %+v", got[0])
	}
	if got[1].hasExec || got[1].err == nil {
		t.Fatalf("parse-failure record should carry nil exec and the error: %+v", got[1])
	}
	if !got[2].hasExec || got[2].err != nil {
		t.Fatalf("ExecStatement record: %+v", got[2])
	}
}

// TestSetQueryHook installs and removes the hook on a live DB.
func TestSetQueryHook(t *testing.T) {
	db, recs, mu := hookDB(t)
	db.SetQueryHook(nil)
	if _, _, err := db.QueryContext(context.Background(), "SELECT id FROM t"); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	n := len(*recs)
	mu.Unlock()
	if n != 0 {
		t.Fatalf("removed hook still fired %d times", n)
	}
	var fired bool
	db.SetQueryHook(func(ctx context.Context, sql string, e *Exec, err error) { fired = true })
	if _, _, err := db.QueryContext(context.Background(), "SELECT id FROM t"); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("reinstalled hook did not fire")
	}
}
