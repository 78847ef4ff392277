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
// what it answers over the plain backend: the fold owns the keys and the
// MIN and MAX it keeps across rows, and a kept row its text.
func TestLentBodiesAreNotKept(t *testing.T) {
	st := petsStore(t)
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
	plain := openTestDB(t, st)
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
	}
	if !strings.Contains(run(plain, grouped, StrategyFiltered), "owl, barn") {
		t.Fatal("the grouped answer lost its quoted key")
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
