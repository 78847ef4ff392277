package engine

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"pushdowndb/internal/s3api"
	"pushdowndb/internal/selectengine"
	"pushdowndb/internal/sqlparse"
	"pushdowndb/internal/store"
)

// flakyBackend injects failures into selected operations to verify the
// engine propagates storage errors instead of hanging or corrupting
// results.
type flakyBackend struct {
	s3api.Backend
	failSelects   int32 // fail the first N Select calls
	failGets      int32
	failGetRanges bool
}

func (f *flakyBackend) Select(ctx context.Context, bucket, key string, req selectengine.Request) (*selectengine.Result, error) {
	if atomic.AddInt32(&f.failSelects, -1) >= 0 {
		return nil, fmt.Errorf("injected select failure on %s", key)
	}
	return f.Backend.Select(ctx, bucket, key, req)
}

func (f *flakyBackend) Get(ctx context.Context, bucket, key string) ([]byte, error) {
	if atomic.AddInt32(&f.failGets, -1) >= 0 {
		return nil, fmt.Errorf("injected get failure on %s", key)
	}
	return f.Backend.Get(ctx, bucket, key)
}

func (f *flakyBackend) GetRanges(ctx context.Context, bucket, key string, ranges [][2]int64) ([][]byte, error) {
	if f.failGetRanges {
		return nil, fmt.Errorf("injected multi-range failure on %s", key)
	}
	return f.Backend.GetRanges(ctx, bucket, key, ranges)
}

func flakyDB(t *testing.T, mutate func(*flakyBackend)) *DB {
	t.Helper()
	st := newTestStore(t)
	buildIndex(t, st, testBucket, "events", "v") // read by the operator API only: no SQL here plans with it
	fc := &flakyBackend{Backend: s3api.NewInProc(st)}
	mutate(fc)
	db, err := Open(testBucket, WithBackend("flaky", fc))
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestSelectFailurePropagates(t *testing.T) {
	db := flakyDB(t, func(f *flakyBackend) { f.failSelects = 1 })
	_, err := db.NewExec().S3SideFilter("events", "v < 0", "*")
	if err == nil || !strings.Contains(err.Error(), "injected select failure") {
		t.Fatalf("err = %v", err)
	}
}

func TestGetFailurePropagates(t *testing.T) {
	db := flakyDB(t, func(f *flakyBackend) { f.failGets = 2 })
	_, err := db.NewExec().ServerSideFilter("events", "v < 0", "")
	if err == nil || !strings.Contains(err.Error(), "injected get failure") {
		t.Fatalf("err = %v", err)
	}
}

func TestMultiRangeFailurePropagates(t *testing.T) {
	db := flakyDB(t, func(f *flakyBackend) { f.failGetRanges = true })
	_, err := db.NewExec().IndexFilter("events", "v", "value <= -40",
		IndexFilterOptions{MultiRange: true})
	if err == nil || !strings.Contains(err.Error(), "injected multi-range failure") {
		t.Fatalf("err = %v", err)
	}
}

func TestJoinFailurePropagates(t *testing.T) {
	db := flakyDB(t, func(f *flakyBackend) { f.failSelects = 1 })
	_, err := db.NewExec().BloomJoin(joinSpec())
	if err == nil {
		t.Fatal("bloom join should surface the injected failure")
	}
	// Baseline join uses plain GETs; injected GET failures surface too.
	db2 := flakyDB(t, func(f *flakyBackend) { f.failGets = 1 })
	if _, err := db2.NewExec().BaselineJoin(joinSpec()); err == nil {
		t.Fatal("baseline join should surface the injected failure")
	}
}

func TestGroupByFailurePropagates(t *testing.T) {
	db := flakyDB(t, func(f *flakyBackend) { f.failSelects = 3 })
	if _, err := db.NewExec().S3SideGroupBy("events", "g", groupAggs(), ""); err == nil {
		t.Fatal("s3-side group-by should surface the injected failure")
	}
	db2 := flakyDB(t, func(f *flakyBackend) { f.failSelects = 6 })
	if _, err := db2.NewExec().HybridGroupBy("events", "g", groupAggs(),
		HybridGroupByOptions{}); err == nil {
		t.Fatal("hybrid group-by should surface the injected failure")
	}
}

func TestCorruptPartitionSurfaceserror(t *testing.T) {
	db, st := newTestDB(t)
	// Overwrite one partition with garbage that fails CSV scanning
	// (an unterminated quote).
	st.Put(testBucket, "events/part0001.csv", []byte("k,g,v\n\"unterminated"))
	if _, err := db.NewExec().SelectRows("s", 0, "events", "SELECT * FROM S3Object"); err == nil {
		t.Fatal("corrupt partition should surface an error")
	}
}

// Partition-count invariance: the same data split differently must give
// identical answers (the paper: "the techniques ... do not make any
// assumptions about how the data is partitioned").
func TestPartitionCountInvariance(t *testing.T) {
	results := map[int][]string{}
	for _, parts := range []int{1, 3, 7} {
		db := eventsDB(t, parts)
		var outs []string
		rel, err := db.NewExec().S3SideFilter("events", "v <= -40", "k")
		if err != nil {
			t.Fatal(err)
		}
		outs = append(outs, fmt.Sprint(len(rel.Rows)))
		g, err := db.NewExec().S3SideGroupBy("events", "g", groupAggs(), "")
		if err != nil {
			t.Fatal(err)
		}
		outs = append(outs, normGroups(g))
		tk, err := db.NewExec().SamplingTopK("events", "v", 5, true,
			SamplingTopKOptions{SampleSize: 100})
		if err != nil {
			t.Fatal(err)
		}
		vi := tk.ColIndex("v")
		for _, r := range tk.Rows {
			outs = append(outs, r[vi].String())
		}
		results[parts] = outs
	}
	want := fmt.Sprint(results[1])
	for _, parts := range []int{3, 7} {
		if got := fmt.Sprint(results[parts]); got != want {
			t.Errorf("results differ at %d partitions:\n%s\nvs\n%s", parts, got, want)
		}
	}
}

// normGroups renders group rows with numeric rounding: different
// partition splits legitimately sum floats in different orders.
func normGroups(rel *Relation) string {
	out := make([]string, 0, len(rel.Rows))
	for _, r := range rel.Rows {
		parts := make([]string, len(r))
		for j, v := range r {
			if f, ok := v.Num(); ok {
				parts[j] = fmt.Sprintf("%.2f", f)
			} else {
				parts[j] = v.String()
			}
		}
		out = append(out, strings.Join(parts, "|"))
	}
	sort.Strings(out)
	return strings.Join(out, ";")
}

// eventsDB regenerates the events table (same seed as newTestDB) with the
// given partition count.
func eventsDB(t *testing.T, parts int) *DB {
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
	if err := PartitionTable(context.Background(), st, testBucket, "events", []string{"k", "g", "v"}, events, parts); err != nil {
		t.Fatal(err)
	}
	return openTestDB(t, st)
}

func TestS3SideGroupByRejectsTooManyGroups(t *testing.T) {
	db, _ := newTestDB(t)
	// Force an enormous CASE query by grouping on the (distinct) key
	// column — 1000 groups x aggregates exceeds the expression budget.
	aggs := []GroupAgg{{Func: sqlparse.AggSum, Expr: "v", As: "s"}}
	_, err := db.NewExec().S3SideGroupBy("events", "k", aggs, "")
	if err == nil {
		t.Skip("expression fit at this scale; not an error")
	}
	if !strings.Contains(err.Error(), "expression limit") {
		t.Errorf("unexpected error: %v", err)
	}
}
