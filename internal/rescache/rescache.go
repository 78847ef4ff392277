// Package rescache caches S3 Select responses across queries. The paper
// pays the storage service's request/scan/transfer rates on every query,
// so repeated analytical queries re-buy the same pushed-down work; the
// follow-up "Enhancing Computation Pushdown for Cloud OLAP Databases"
// caches pushdown results at the compute tier and makes cached responses
// the cheapest scan of all. This package is that compute-tier cache: an
// LRU over per-(backend, bucket, object, select-expression) responses,
// bounded by a byte budget, with generation counters per (bucket, object)
// so a table reload can atomically invalidate everything cached for its
// partitions — including fills that were in flight when the reload
// happened.
//
// Cached *selectengine.Result values are shared between the cache and
// every reader; they are owned (Result.Own) and immutable after insertion.
package rescache

import (
	"container/list"
	"context"
	"strings"
	"sync"

	"pushdowndb/internal/s3api"
	"pushdowndb/internal/selectengine"
)

// Key identifies one cached select response: the object coordinates the
// response was computed from, plus the canonical query string (SQL and
// request flags — header mode, scan range, capabilities) that produced it.
type Key struct {
	// Backend is the registered backend name the request ran against (the
	// same object bytes may legitimately live on several backends).
	Backend string
	// Bucket and Object locate the scanned object.
	Bucket, Object string
	// Query is the canonical request fingerprint: the select SQL plus any
	// request parameters that change the response
	// (selectengine.Request.Fingerprint; Over's layer fills it in).
	Query string
}

type entry struct {
	key  Key
	gen  uint64
	res  *selectengine.Result
	size int64
}

// Stats is a snapshot of the cache's counters.
type Stats struct {
	Hits, Misses int64
	Puts         int64
	// Evictions counts entries dropped to fit the byte budget;
	// Invalidations counts entries dropped by generation bumps.
	Evictions, Invalidations int64
	// InflightDedup counts lookups that missed the cache but were served
	// by joining another query's in-flight backend request (scanshare
	// singleflight), so /stats can tell "the response was resident" from
	// "the response was being fetched and we rode along".
	InflightDedup          int64
	Entries                int
	UsedBytes, BudgetBytes int64
}

// HitRate is the fraction of lookups served from the cache, in [0, 1]
// (0 before any lookup). Long-lived servers surface it per stats poll so
// operators can see whether the shared cache is actually carrying the
// workload.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Cache is a byte-budgeted LRU of select responses. All methods are safe
// for concurrent use.
type Cache struct {
	mu      sync.Mutex
	budget  int64
	used    int64
	ll      *list.List // front = most recently used; values are *entry
	entries map[Key]*list.Element
	// gens maps bucket\x00object to its current generation. An entry is
	// valid only while its recorded generation matches; Invalidate* bumps
	// generations, which also voids fills that started before the bump.
	gens map[string]uint64

	hits, misses, puts, evictions, invalidations int64
	inflightDedup                                int64
}

// New returns a cache holding at most budgetBytes of response payload.
// A budget <= 0 yields a cache that never stores anything (every Put is
// dropped), which keeps call sites branch-free.
func New(budgetBytes int64) *Cache {
	return &Cache{
		budget:  budgetBytes,
		ll:      list.New(),
		entries: map[Key]*list.Element{},
		gens:    map[string]uint64{},
	}
}

// layer is the cache as a stage of one backend's select pipeline.
type layer struct {
	cache   *Cache
	backend string
	inner   s3api.Selector
}

// Over returns a Selector that answers inner's requests from c, keyed under
// the registered backend name (one cache serves every backend of a DB). A
// hit lends a per-caller copy of the shared entry stamped CacheHit and
// never reaches inner. A miss snapshots the object's generation, asks
// inner, stamps CacheMiss and fills at the snapshot with an owned copy —
// so a response that raced an invalidation is dropped — unless the response
// was coalesced onto another request's pass below (Served.Coalesced): the
// request that led the pass fills, the riders only record an in-flight dedup.
func (c *Cache) Over(backend string, inner s3api.Selector) s3api.Selector {
	return &layer{cache: c, backend: backend, inner: inner}
}

func (l *layer) Lend(ctx context.Context, bucket, key string, req selectengine.Request, sink func(*selectengine.Result) error) error {
	k := Key{Backend: l.backend, Bucket: bucket, Object: key, Query: req.Fingerprint()}
	if cached, ok := l.cache.Get(k); ok {
		res := *cached
		res.Served = selectengine.Served{Cache: selectengine.CacheHit}
		return sink(&res)
	}
	gen := l.cache.Generation(bucket, key)
	return l.inner.Lend(ctx, bucket, key, req, func(res *selectengine.Result) error {
		res.Served.Cache = selectengine.CacheMiss
		if res.Served.Coalesced {
			l.cache.NoteInflightDedup()
		} else {
			res = res.Own()
			l.cache.Put(k, gen, res)
		}
		return sink(res)
	})
}

// Resident counts how many of a bucket's objects have req's response
// resident and current under the named backend, without promoting entries
// or touching the hit/miss counters — the planner estimates a scan's hit
// ratio with it.
func (c *Cache) Resident(backend, bucket string, objects []string, req selectengine.Request) int {
	k := Key{Backend: backend, Bucket: bucket, Query: req.Fingerprint()}
	n := 0
	for _, obj := range objects {
		k.Object = obj
		if c.Contains(k) {
			n++
		}
	}
	return n
}

func genKey(bucket, object string) string { return bucket + "\x00" + object }

// Generation returns the current generation of (bucket, object), creating
// it at zero if unseen. Fill paths snapshot the generation *before* issuing
// the storage request and pass it to Put, so a response that raced with an
// invalidation is discarded instead of resurrecting stale rows.
func (c *Cache) Generation(bucket, object string) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	gk := genKey(bucket, object)
	if _, ok := c.gens[gk]; !ok {
		// Materialize the zero generation so a later InvalidatePrefix sees
		// (and bumps) this object even before any Put lands.
		c.gens[gk] = 0
	}
	return c.gens[gk]
}

// Get returns the cached response for k, promoting it to most recently
// used. Entries whose object generation moved since insertion are dropped
// and reported as misses.
func (c *Cache) Get(k Key) (*selectengine.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[k]
	if !ok {
		c.misses++
		return nil, false
	}
	ent := el.Value.(*entry)
	if ent.gen != c.gens[genKey(k.Bucket, k.Object)] {
		c.removeLocked(el)
		c.invalidations++
		c.misses++
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.hits++
	return ent.res, true
}

// Contains reports whether k is resident and current, without promoting it
// or touching the hit/miss counters — the planner uses it to estimate hit
// ratios without distorting LRU order.
func (c *Cache) Contains(k Key) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[k]
	if !ok {
		return false
	}
	return el.Value.(*entry).gen == c.gens[genKey(k.Bucket, k.Object)]
}

// Put stores res under k if gen still matches the object's current
// generation (see Generation). Responses larger than the whole budget are
// not cached; older entries are evicted LRU-first to fit the budget.
func (c *Cache) Put(k Key, gen uint64, res *selectengine.Result) {
	// The key is charged too: Bloom-probe fingerprints carry pushed
	// predicates up to the select engine's 256 KB expression limit, which
	// can dwarf a small response payload.
	size := resultSize(res) + keySize(k)
	c.mu.Lock()
	defer c.mu.Unlock()
	if size > c.budget {
		return
	}
	if gen != c.gens[genKey(k.Bucket, k.Object)] {
		return // invalidated while the fill was in flight
	}
	if el, ok := c.entries[k]; ok {
		// Same key re-filled (e.g. two concurrent misses): keep the newer
		// response, which was produced at the same generation.
		c.removeLocked(el)
	}
	ent := &entry{key: k, gen: gen, res: res, size: size}
	c.entries[k] = c.ll.PushFront(ent)
	c.used += size
	c.puts++
	for c.used > c.budget {
		back := c.ll.Back()
		if back == nil {
			break
		}
		c.removeLocked(back)
		c.evictions++
	}
}

// removeLocked unlinks el from the LRU and the index. Caller holds mu.
func (c *Cache) removeLocked(el *list.Element) {
	ent := el.Value.(*entry)
	c.ll.Remove(el)
	delete(c.entries, ent.key)
	c.used -= ent.size
}

// InvalidatePrefix voids every cached response for objects of bucket whose
// key starts with prefix: resident entries are dropped immediately and the
// objects' generations are bumped so in-flight fills for them cannot land.
// A table reload invalidates with the table's partition prefix; the empty
// prefix voids everything cached for the bucket.
func (c *Cache) InvalidatePrefix(bucket, prefix string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	gp := genKey(bucket, prefix)
	for gk := range c.gens {
		if strings.HasPrefix(gk, gp) {
			c.gens[gk]++
		}
	}
	var drop []*list.Element
	for k, el := range c.entries {
		if k.Bucket == bucket && strings.HasPrefix(k.Object, prefix) {
			drop = append(drop, el)
			// The object may never have gone through Generation(); bump it
			// so pre-bump fills racing this invalidation are rejected.
			if _, seen := c.gens[genKey(k.Bucket, k.Object)]; !seen {
				c.gens[genKey(k.Bucket, k.Object)]++
			}
		}
	}
	for _, el := range drop {
		c.removeLocked(el)
		c.invalidations++
	}
}

// NoteInflightDedup records one miss that was nonetheless served without
// a new storage request, by joining an in-flight fill for the same key
// (scanshare singleflight). The miss itself was already counted by Get;
// this distinguishes its resolution in the stats.
func (c *Cache) NoteInflightDedup() {
	c.mu.Lock()
	c.inflightDedup++
	c.mu.Unlock()
}

// Len returns the number of resident entries (cheaper than Stats when the
// caller only needs to know whether the cache holds anything at all).
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits: c.hits, Misses: c.misses, Puts: c.puts,
		Evictions: c.evictions, Invalidations: c.invalidations,
		InflightDedup: c.inflightDedup,
		Entries:       c.ll.Len(), UsedBytes: c.used, BudgetBytes: c.budget,
	}
}

// keySize approximates the footprint of a cache key (the Query string —
// the full pushed SQL — dominates).
func keySize(k Key) int64 {
	return int64(len(k.Backend) + len(k.Bucket) + len(k.Object) + len(k.Query))
}

// resultSize approximates the memory footprint of a cached response: the
// entry, the column names with their string headers, and the body's array.
// The body is charged exactly: an owned body is an array of its rows'
// length (cap equals len: Result.Own), and cap is what is charged, so a
// body with spare room past its end would be charged that room too.
func resultSize(r *selectengine.Result) int64 {
	const (
		entryOverhead = 128
		fieldOverhead = 16
	)
	n := int64(entryOverhead + cap(r.Body))
	for _, col := range r.Columns {
		n += int64(len(col)) + fieldOverhead
	}
	return n
}
