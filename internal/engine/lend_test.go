package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"pushdowndb/internal/race"
	"pushdowndb/internal/s3api"
	"pushdowndb/internal/scanshare"
	"pushdowndb/internal/selectengine"
	"pushdowndb/internal/store"
)

// poisoning is a lending backend that overwrites every lent body with '#'
// as soon as the sink it was lent to returns, as storage's next scan would
// overwrite its render buffer: an answer that still views a lent body reads
// the poison. Owned bodies (a cache's, an adapted backend's) are left alone.
type poisoning struct{ s3api.Backend }

func (p poisoning) Lend(ctx context.Context, bucket, key string, req selectengine.Request, sink func(*selectengine.Result) error) error {
	return s3api.Lending(p.Backend).Lend(ctx, bucket, key, req, func(res *selectengine.Result) error {
		err := sink(res)
		if res.Lent() {
			poison(res.Body)
		}
		return err
	})
}

// copying hides its backend's Lend: every response reaches the engine as
// Select's owned copy (s3api.Lending's adapter), which no later scan's
// reuse of storage's render buffer can reach.
type copying struct{ s3api.Backend }

func poison(body []byte) {
	for i := range body {
		body[i] = '#'
	}
}

// petsStore holds pets(name, kind, n) over 5 partitions: text group keys,
// and text for MIN and MAX.
func petsStore(t *testing.T) *store.Store {
	st := store.New()
	kinds := []string{"cat", "dog", "newt", "owl, barn", "yak"}
	var rows [][]string
	for i := 0; i < 400; i++ {
		rows = append(rows, []string{fmt.Sprintf("pet %03d %s", (i*37)%400, strings.Repeat("z", i%7)), kinds[(i*7)%len(kinds)], fmt.Sprint(i % 13)})
	}
	if err := PartitionTable(context.Background(), st, testBucket, "pets", []string{"name", "kind", "n"}, rows, 5); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestLentBodiesAreNotKept: a pushed grouped scan over five partitions with
// text group keys and MIN and MAX over text answers under the poisoning
// backend, with and without the result cache and scan sharing over it,
// what it answers over a copying one: the fold owns the keys and the
// MIN and MAX it keeps across rows, and a kept row its text. So do the
// small readers of a response, answers and plans alike: the planner's
// remote probe of a table without a statistics object, SamplingTopK's sample
// of a text key, S3SideGroupBy and SelectAgg's MIN and MAX over text, and
// the planner's sample of text group keys pushed as an s3-groupby; a pushed
// tail planned from a sample must pass its check (a threshold or group key
// that viewed a lent body fails it, and the fallback would hide that). At
// one P the sample's render buffer is the one the pushed scan's storage
// renders its responses into next, and poisons.
func TestLentBodiesAreNotKept(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	st, bare := petsStore(t), petsStore(t)
	buildIndex(t, bare, testBucket, "pets", "n")
	dropStats(bare, testBucket, "pets")
	grouped := "SELECT kind, MIN(name) AS lo, MAX(name) AS hi, COUNT(*) AS c, SUM(n) AS s FROM pets GROUP BY kind"
	rows := "SELECT name, kind FROM pets WHERE n < 5"
	ctx := context.Background()
	run := func(db *DB, sql, strategy string) string {
		var rel *Relation
		var err error
		if strategy == "" {
			rel, _, err = db.QueryContext(ctx, sql)
		} else {
			rel, _, err = db.QueryForced(ctx, sql, strategy)
		}
		if err != nil {
			t.Fatalf("%s %s: %v", strategy, sql, err)
		}
		return rel.String()
	}
	// The small readers, each over its store and options: the answer, and
	// the plan where there is one.
	readers := []struct {
		name string
		st   *store.Store
		opts []Option
		run  func(db *DB) (string, error)
	}{
		{"the remote probe", bare, nil, func(db *DB) (string, error) {
			rel, e, err := db.QueryContext(ctx, "SELECT name, kind FROM pets WHERE n < 2")
			if err == nil && e.QueryPlan().Scans[0].StatsSource != StatsFromProbe {
				t.Fatalf("the remote probe did not run:\n%s", e.QueryPlan())
			}
			return fmt.Sprint(rel, e.QueryPlan()), err
		}},
		{"SamplingTopK of a text key", st, nil, func(db *DB) (string, error) {
			e := db.NewExecContext(ctx)
			rel, err := e.SamplingTopK("SELECT name, kind FROM pets ORDER BY name DESC LIMIT 5", 60)
			if err == nil && (accessOf(e).Pushed != PushedTopK || accessOf(e).Fallback != "") {
				err = fmt.Errorf("the sample's threshold did not hold:\n%s", e.QueryPlan())
			}
			return fmt.Sprint(rel, e.QueryPlan()), err
		}},
		{"S3SideGroupBy", st, nil, func(db *DB) (string, error) {
			rel, err := db.NewExecContext(ctx).S3SideGroupBy("SELECT kind, SUM(n) AS s, COUNT(*) AS c FROM pets GROUP BY kind")
			return fmt.Sprint(rel), err
		}},
		{"SelectAgg over text", st, nil, func(db *DB) (string, error) {
			e := db.NewExecContext(ctx)
			row, err := e.SelectAgg("agg", e.NextStage(), "pets", "SELECT MIN(name), MAX(name), COUNT(*) FROM S3Object")
			return fmt.Sprint(row), err
		}},
		{"sampled text group keys", st, []Option{pushScale}, func(db *DB) (string, error) {
			rel, e, err := db.QueryContext(ctx, "SELECT kind, COUNT(*) AS c, MAX(name) AS hi FROM pets GROUP BY kind")
			if ap := accessOf(e); err == nil && ap != nil && ap.Fallback != "" {
				err = fmt.Errorf("the sampled groups' check failed:\n%s", e.QueryPlan())
			}
			return fmt.Sprint(rel, e.QueryPlan()), err
		}},
	}
	answer := func(db *DB, name string, run func(db *DB) (string, error)) string {
		got, err := run(db)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return got
	}
	plain, err := Open(testBucket, WithBackend("s3sim", copying{s3api.NewInProc(st)}))
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range [][]Option{nil, {WithResultCache(1 << 20)}, {WithResultCache(1 << 20), WithScanSharing(scanshare.Config{})}} {
		db, err := Open(testBucket, append([]Option{WithBackend("s3sim", poisoning{s3api.NewInProc(st)})}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		for _, sql := range []string{grouped, rows} {
			for _, strategy := range []string{"", StrategyFiltered, StrategyBaseline} {
				want := run(plain, sql, strategy)
				for range 2 { // cold, then warm where a cache is on
					if got := run(db, sql, strategy); got != want {
						t.Errorf("%d options, %q %s: poisoned lent bodies changed the answer:\n%s\nwant\n%s", len(opts), strategy, sql, got, want)
					}
				}
			}
		}
		for _, r := range readers {
			clean, err := Open(testBucket, append([]Option{WithBackend("s3sim", copying{s3api.NewInProc(r.st)})}, append(r.opts, opts...)...)...)
			if err != nil {
				t.Fatal(err)
			}
			db, err := Open(testBucket, append([]Option{WithBackend("s3sim", poisoning{s3api.NewInProc(r.st)})}, append(r.opts, opts...)...)...)
			if err != nil {
				t.Fatal(err)
			}
			for range 2 { // cold, then warm where a cache is on
				if got, want := answer(db, r.name, r.run), answer(clean, r.name, r.run); got != want {
					t.Errorf("%d options, %s: poisoned lent bodies changed the answer:\n%s\nwant\n%s", len(opts), r.name, got, want)
				}
			}
		}
	}
	if !strings.Contains(run(plain, grouped, StrategyFiltered), "owl, barn") {
		t.Fatal("the grouped answer lost its quoted key")
	}
	if _, e, err := openOver(t, testBucket, st, pushScale).QueryContext(ctx, "SELECT kind, COUNT(*) AS c, MAX(name) AS hi FROM pets GROUP BY kind"); err != nil || accessOf(e).Pushed != PushedGroupBy {
		t.Fatalf("the sampled text group keys were not pushed (%v):\n%s", err, e.QueryPlan())
	}
}

// misclaiming lends each response with a row more in its stats than its
// body holds.
type misclaiming struct{ s3api.Backend }

func (m misclaiming) Lend(ctx context.Context, bucket, key string, req selectengine.Request, sink func(*selectengine.Result) error) error {
	return s3api.Lending(m.Backend).Lend(ctx, bucket, key, req, func(res *selectengine.Result) error {
		bad := *res
		bad.Stats.RowsReturned++
		return sink(&bad)
	})
}

// TestConsumerErrorComesBackAsIs: a decode that fails inside the sink a
// response is lent to fails the statement with its own error, which no
// layer between storage and the consumer wraps or kinds.
func TestConsumerErrorComesBackAsIs(t *testing.T) {
	db, err := Open(testBucket, WithBackend("s3sim", misclaiming{s3api.NewInProc(newTestStore(t))}))
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = db.QueryForced(context.Background(), "SELECT k, g FROM events WHERE k < 3", StrategyFiltered)
	if want := "engine: a 12-byte response body is not the 4 rows its stats claim"; err == nil || err.Error() != want {
		t.Fatalf("err = %v, want exactly %q", err, want)
	}
	var se *s3api.Error
	if errors.As(err, &se) {
		t.Errorf("the consumer's error came back kinded: %v", se)
	}
}

// returned is a lending backend that sums the bytes its responses return.
type returned struct {
	s3api.Backend
	bytes *atomic.Int64
}

func (r returned) Lend(ctx context.Context, bucket, key string, req selectengine.Request, sink func(*selectengine.Result) error) error {
	return s3api.Lending(r.Backend).Lend(ctx, bucket, key, req, func(res *selectengine.Result) error {
		r.bytes.Add(res.Stats.BytesReturned)
		return sink(res)
	})
}

// TestPushedFoldAllocatesLessThanItsResponses pins that a pushed grouped
// scan reads its responses where storage rendered them: folding a 60k-row
// response allocates under a quarter of the bytes it returns. A body copied
// per response cost those bytes whole.
func TestPushedFoldAllocatesLessThanItsResponses(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation sizes differ under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // keep storage's pooled render buffer on its P
	st := store.New()
	var rows [][]string
	for i := 0; i < 60000; i++ {
		rows = append(rows, []string{fmt.Sprint(i), fmt.Sprintf("group %d", i%5), fmt.Sprintf("%d.25", i%1000)})
	}
	if err := PartitionTable(context.Background(), st, testBucket, "big", []string{"k", "g", "v"}, rows, 1); err != nil {
		t.Fatal(err)
	}
	var bytes atomic.Int64
	db, err := Open(testBucket, WithBackend("s3sim", returned{s3api.NewInProc(st), &bytes}))
	if err != nil {
		t.Fatal(err)
	}
	run := func() uint64 {
		bytes.Store(0)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rel, _, err := db.QueryForced(context.Background(), "SELECT g, SUM(v) AS s, COUNT(*) AS c FROM big GROUP BY g", StrategyFiltered)
		runtime.ReadMemStats(&after)
		if err != nil || len(rel.Rows) != 5 {
			t.Fatalf("%v, %v: want 5 groups", rel, err)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	run() // warms storage's render buffer
	allocs := []uint64{run(), run(), run()}
	sort.Slice(allocs, func(i, j int) bool { return allocs[i] < allocs[j] })
	if got, limit := allocs[1], uint64(bytes.Load())/4; got > limit {
		t.Errorf("a pushed fold of %d returned bytes allocates %d bytes, want at most %d", bytes.Load(), got, limit)
	}
}
