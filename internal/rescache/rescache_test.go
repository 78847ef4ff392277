package rescache

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"pushdowndb/internal/s3api"
	"pushdowndb/internal/selectengine"
)

func res(fields ...string) *selectengine.Result {
	r := &selectengine.Result{Columns: []string{"x"}}
	for _, f := range fields {
		r.Body = append(append(r.Body, f...), '\n')
		r.Stats.RowsReturned++
	}
	return r
}

func key(object, query string) Key {
	return Key{Backend: "b", Bucket: "bkt", Object: object, Query: query}
}

func fill(c *Cache, k Key, r *selectengine.Result) {
	c.Put(k, c.Generation(k.Bucket, k.Object), r)
}

func TestGetPutRoundTrip(t *testing.T) {
	c := New(1 << 20)
	k := key("t/part0000.csv", "SELECT * FROM S3Object")
	if _, ok := c.Get(k); ok {
		t.Fatal("empty cache reported a hit")
	}
	want := res("1", "2")
	fill(c, k, want)
	got, ok := c.Get(k)
	if !ok || got != want {
		t.Fatalf("Get = %v, %v; want the stored result", got, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss / 1 put / 1 entry", st)
	}
}

// entrySize is what one test entry charges against the budget.
func entrySize(k Key, r *selectengine.Result) int64 { return resultSize(r) + keySize(k) }

func TestLRUEvictionOrder(t *testing.T) {
	per := entrySize(key("t/part0000.csv", "q"), res("payload"))
	c := New(3 * per) // room for exactly three entries
	for i := 0; i < 3; i++ {
		fill(c, key(fmt.Sprintf("t/part%04d.csv", i), "q"), res("payload"))
	}
	// Touch entry 0 so entry 1 is the LRU victim.
	if _, ok := c.Get(key("t/part0000.csv", "q")); !ok {
		t.Fatal("entry 0 missing before eviction")
	}
	fill(c, key("t/part0003.csv", "q"), res("payload"))
	if _, ok := c.Get(key("t/part0001.csv", "q")); ok {
		t.Error("LRU entry 1 survived an over-budget insert")
	}
	for _, obj := range []string{"t/part0000.csv", "t/part0002.csv", "t/part0003.csv"} {
		if _, ok := c.Get(key(obj, "q")); !ok {
			t.Errorf("entry %s evicted out of LRU order", obj)
		}
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
}

func TestOversizedResponseNotCached(t *testing.T) {
	c := New(64)
	k := key("t/part0000.csv", "q")
	fill(c, k, res("a very long field value that cannot possibly fit the tiny budget"))
	if _, ok := c.Get(k); ok {
		t.Error("an entry larger than the whole budget was cached")
	}
	if st := c.Stats(); st.UsedBytes != 0 || st.Entries != 0 {
		t.Errorf("stats = %+v, want an empty cache", st)
	}
}

// TestKeyChargedAgainstBudget: the query fingerprint (which can carry a
// 256 KB Bloom predicate) counts toward the budget, so a tiny response
// under a huge key cannot blow past the configured bytes.
func TestKeyChargedAgainstBudget(t *testing.T) {
	c := New(4 << 10)
	hugeQuery := strings.Repeat("p", 8<<10)
	k := key("t/part0000.csv", hugeQuery)
	fill(c, k, res("tiny"))
	if _, ok := c.Get(k); ok {
		t.Error("an entry whose key alone exceeds the budget was cached")
	}
	if st := c.Stats(); st.UsedBytes != 0 {
		t.Errorf("used = %d, want 0", st.UsedBytes)
	}
}

func TestGenerationInvalidatesInFlightFill(t *testing.T) {
	c := New(1 << 20)
	k := key("t/part0000.csv", "q")
	gen := c.Generation(k.Bucket, k.Object) // fill snapshots the generation...
	c.InvalidatePrefix(k.Bucket, "t/part")  // ...table reloads while the request is in flight
	c.Put(k, gen, res("stale"))
	if _, ok := c.Get(k); ok {
		t.Error("a fill that raced an invalidation landed in the cache")
	}
	// A fresh fill at the new generation works.
	fill(c, k, res("fresh"))
	if got, ok := c.Get(k); !ok || string(got.Body) != "fresh\n" {
		t.Errorf("post-invalidation fill: got %v, %v", got, ok)
	}
}

func TestInvalidatePrefixScopesToTable(t *testing.T) {
	c := New(1 << 20)
	ka := key("a/part0000.csv", "q")
	kb := key("b/part0000.csv", "q")
	fill(c, ka, res("a"))
	fill(c, kb, res("b"))
	c.InvalidatePrefix("bkt", "a/part")
	if _, ok := c.Get(ka); ok {
		t.Error("invalidated table a still resident")
	}
	if _, ok := c.Get(kb); !ok {
		t.Error("invalidating table a dropped table b")
	}
	// A different bucket is untouched.
	other := Key{Backend: "b", Bucket: "other", Object: "a/part0000.csv", Query: "q"}
	fill(c, other, res("o"))
	c.InvalidatePrefix("bkt", "a/part")
	if _, ok := c.Get(other); !ok {
		t.Error("invalidation crossed buckets")
	}
}

func TestInvalidateEmptyPrefixVoidsBucket(t *testing.T) {
	c := New(1 << 20)
	k := key("t/part0000.csv", "q")
	gen := c.Generation(k.Bucket, k.Object)
	fill(c, k, res("x"))
	c.InvalidatePrefix(k.Bucket, "")
	if _, ok := c.Get(k); ok {
		t.Error("the empty prefix left an entry resident")
	}
	c.Put(k, gen, res("stale"))
	if _, ok := c.Get(k); ok {
		t.Error("a pre-invalidation fill landed afterwards")
	}
	if st := c.Stats(); st.UsedBytes != 0 {
		t.Errorf("used = %d after voiding the bucket, want 0", st.UsedBytes)
	}
}

func TestContainsDoesNotPromoteOrCount(t *testing.T) {
	c := New(2 * entrySize(key("t/part0000.csv", "q"), res("p")))
	k0, k1 := key("t/part0000.csv", "q"), key("t/part0001.csv", "q")
	fill(c, k0, res("p"))
	fill(c, k1, res("p"))
	before := c.Stats()
	if !c.Contains(k0) || c.Contains(key("t/part0002.csv", "q")) {
		t.Fatal("Contains answered wrong")
	}
	after := c.Stats()
	if after.Hits != before.Hits || after.Misses != before.Misses {
		t.Errorf("Contains moved the hit/miss counters: %+v -> %+v", before, after)
	}
	// k0 was Contains-checked but not promoted: it is still the LRU victim.
	fill(c, key("t/part0002.csv", "q"), res("p"))
	if c.Contains(k0) {
		t.Error("Contains promoted the entry it peeked at")
	}
}

func TestZeroBudgetNeverStores(t *testing.T) {
	c := New(0)
	k := key("t/part0000.csv", "q")
	fill(c, k, res("x"))
	if _, ok := c.Get(k); ok {
		t.Error("zero-budget cache stored an entry")
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New(1 << 16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := key(fmt.Sprintf("t/part%04d.csv", i%16), fmt.Sprintf("q%d", g%3))
				if _, ok := c.Get(k); !ok {
					fill(c, k, res(fmt.Sprintf("row-%d-%d", g, i)))
				}
				if i%50 == 0 {
					c.InvalidatePrefix("bkt", "t/part")
				}
				c.Contains(k)
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.UsedBytes < 0 || int64(st.Entries) < 0 {
		t.Errorf("corrupted accounting: %+v", st)
	}
}

func TestStatsHitRate(t *testing.T) {
	if r := (Stats{}).HitRate(); r != 0 {
		t.Fatalf("zero stats hit rate: %g", r)
	}
	c := New(1 << 20)
	k := key("t/part0000.csv", "q")
	c.Get(k) // miss
	fill(c, k, res("x"))
	c.Get(k) // hit
	c.Get(k) // hit
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("counters: %+v", st)
	}
	if got := st.HitRate(); got < 0.66 || got > 0.67 {
		t.Fatalf("hit rate: %g", got)
	}
}

func TestNoteInflightDedup(t *testing.T) {
	c := New(1 << 20)
	if s := c.Stats(); s.InflightDedup != 0 {
		t.Fatalf("fresh cache InflightDedup = %d", s.InflightDedup)
	}
	c.NoteInflightDedup()
	c.NoteInflightDedup()
	if s := c.Stats(); s.InflightDedup != 2 {
		t.Fatalf("InflightDedup = %d, want 2", s.InflightDedup)
	}
}

// innerFunc is the select stage below the cache layer, lending the owned
// result it returns.
type innerFunc func(req selectengine.Request) (*selectengine.Result, error)

func (f innerFunc) Lend(_ context.Context, _, _ string, req selectengine.Request, sink func(*selectengine.Result) error) error {
	r, err := f(req)
	if err != nil {
		return err
	}
	return sink(r)
}

// lent is what sel lends for key, as the sink saw it.
func lent(sel s3api.Selector, key string, req selectengine.Request) (r *selectengine.Result, err error) {
	err = sel.Lend(context.Background(), "bkt", key, req, func(got *selectengine.Result) error { r = got; return nil })
	return r, err
}

// lendingObject is a select stage lending, as storage does, req's response
// over data, whose body it overwrites once the sink returns.
type lendingObject []byte

func (data lendingObject) Lend(_ context.Context, _, _ string, req selectengine.Request, sink func(*selectengine.Result) error) error {
	return selectengine.Run(data, req, func(r *selectengine.Result) error {
		err := sink(r)
		for i := range r.Body {
			r.Body[i] = '#'
		}
		return err
	})
}

// TestFillOwnsALentResponse: a miss fills with its own copy of a lent
// response, which the sink reads too, so a later hit answers what the miss
// did however storage reuses its buffer.
func TestFillOwnsALentResponse(t *testing.T) {
	c := New(1 << 20)
	sel := c.Over("b", lendingObject("x\n1\n2\n"))
	req := selectengine.Request{SQL: "SELECT x FROM S3Object", HasHeader: true}
	miss, err := lent(sel, "t/part0000.csv", req)
	if err != nil || miss.Lent() || string(miss.Body) != "1\n2\n" {
		t.Fatalf("miss: %+v, %v; want the filled copy, owned", miss, err)
	}
	hit, err := lent(sel, "t/part0000.csv", req)
	if err != nil || hit.Served.Cache != selectengine.CacheHit || string(hit.Body) != "1\n2\n" {
		t.Fatalf("hit: %+v, %v; want the rows the miss saw", hit, err)
	}
}

// TestLayerStampsAndFillProtocol walks the layer's three outcomes: a miss
// fills and is stamped a miss; a hit is the caller's own header over the
// shared rows and never reaches the stage below; a response that rode
// another request's pass below is returned but left for that request to
// fill.
func TestLayerStampsAndFillProtocol(t *testing.T) {
	c := New(1 << 20)
	calls := 0
	var served selectengine.Served
	sel := c.Over("b", innerFunc(func(selectengine.Request) (*selectengine.Result, error) {
		calls++
		r := res("1", "2")
		r.Served = served
		return r, nil
	}))
	req := selectengine.Request{SQL: "SELECT x FROM S3Object", HasHeader: true}

	miss, err := lent(sel, "t/part0000.csv", req)
	if err != nil || miss.Served.Cache != selectengine.CacheMiss || calls != 1 {
		t.Fatalf("first select: %+v, %v after %d inner calls; want a stamped miss", miss, err, calls)
	}
	hit, err := lent(sel, "t/part0000.csv", req)
	if err != nil || hit.Served != (selectengine.Served{Cache: selectengine.CacheHit}) || calls != 1 {
		t.Fatalf("repeat: %+v, %v after %d inner calls; want a hit that reached nothing", hit, err, calls)
	}
	if hit == miss || &hit.Body[0] != &miss.Body[0] {
		t.Fatal("a hit must be its own header over the shared body")
	}
	if n := c.Resident("b", "bkt", []string{"t/part0000.csv", "t/part0001.csv"}, req); n != 1 {
		t.Fatalf("Resident = %d, want 1 of the 2 objects", n)
	}
	if n := c.Resident("other", "bkt", []string{"t/part0000.csv"}, req); n != 0 {
		t.Fatalf("Resident under another backend = %d, want 0", n)
	}

	served = selectengine.Served{Sharers: 3, Coalesced: true}
	rider, err := lent(sel, "t/part0001.csv", req)
	if err != nil || rider.Served.Cache != selectengine.CacheMiss || rider.Served.Sharers != 3 {
		t.Fatalf("coalesced select: %+v, %v", rider, err)
	}
	if st := c.Stats(); st.Puts != 1 || st.InflightDedup != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want the rider's response uncached and one in-flight dedup", st)
	}
}
