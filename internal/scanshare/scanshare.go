// Package scanshare coalesces concurrent S3 Selects into shared storage
// passes. PushdownDB prices every query's pushed-down scans independently,
// so under server concurrency many in-flight queries pay full request/
// scan/transfer cost for the same partitions; SharedDB-style multi-query
// execution (and the "Enhancing Computation Pushdown" follow-up) share one
// storage pass across consumers instead. The Coordinator is a layer of the
// engine's select pipeline (Over wraps a backend's Select, below the
// result cache) and shares passes two ways:
//
//   - Singleflight: concurrent identical requests against the same
//     (backend, bucket, object, canonical request) join one in-flight
//     backend call whose response fans out to every waiter. This covers
//     every request shape, including aggregates and ranged scans.
//
//   - Predicate merging: within a short batching window, compatible
//     simple scans on the same object (projection + disjunction-mergeable
//     WHERE, no aggregates/joins/order/limit) combine into ONE pushed
//     Select carrying the OR of the filters and the union of the
//     referenced columns. Each waiter's own SQL is then re-applied
//     locally over the merged response, which is exact: the merged pass
//     returns the raw referenced columns verbatim, so re-executing the
//     original request over them reproduces the direct answer
//     byte-for-byte.
//
// Cost attribution is the caller's job: every sharer gets its own Result
// header stamped (selectengine.Served) with the pass stats, the final
// sharer count, the local re-filter row volume and whether it rode another
// request's pass, and the engine meters one pass split across sharers
// (cloudsim.Phase.AddSharedSelectRequest).
//
// Invalidate bumps a coordinator-wide epoch that is part of every share
// key, so requests arriving after a table reload never join a pass started
// before it. The engine bumps it before voiding the result cache: a
// post-reload miss can then only ride a post-reload pass.
package scanshare

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pushdowndb/internal/csvx"
	"pushdowndb/internal/s3api"
	"pushdowndb/internal/selectengine"
	"pushdowndb/internal/sqlparse"
)

// Config tunes the coordinator.
type Config struct {
	// Window is how long the first mergeable request on an object waits
	// for companions before firing. Zero uses DefaultWindow; negative
	// disables predicate merging entirely (singleflight only).
	Window time.Duration
	// MaxBatch bounds how many distinct requests merge into one pass
	// (default 16); a full batch fires before the window closes.
	MaxBatch int
}

// DefaultWindow is the batching window used when Config.Window is zero:
// long enough for a barrier of concurrent queries fanning out over the
// same partitions to meet, short next to any real storage round trip.
const DefaultWindow = 2 * time.Millisecond

// Stats is a snapshot of the coordinator's counters.
type Stats struct {
	// Selects counts requests entering the coordinator.
	Selects int64 `json:"selects"`
	// BackendSelects counts real backend calls issued (shared passes,
	// solo passes and per-waiter fallbacks).
	BackendSelects int64 `json:"backend_selects"`
	// Coalesced counts requests served by a pass some other request paid
	// the backend call for (sharers-1 per shared pass).
	Coalesced int64 `json:"coalesced"`
	// SharedPasses counts backend passes with more than one sharer;
	// MergedPasses counts the subset that pushed a combined OR/union
	// request. Sharers sums sharer counts over shared passes, so
	// Sharers/SharedPasses is the average fan-out per shared pass.
	SharedPasses int64 `json:"shared_passes"`
	MergedPasses int64 `json:"merged_passes"`
	Sharers      int64 `json:"sharers"`
	// ScanBytesSaved and ReturnBytesSaved estimate the storage traffic
	// sharing avoided: (sharers-1) x the pass's scan/return volume, i.e.
	// what the extra sharers would have re-bought running alone.
	ScanBytesSaved   int64 `json:"scan_bytes_saved"`
	ReturnBytesSaved int64 `json:"return_bytes_saved"`
	// Fallbacks counts waiters that re-issued their own request directly
	// after a shared pass (or their slice of it) failed.
	Fallbacks int64 `json:"fallbacks"`
}

// Coordinator batches and coalesces Selects. Safe for concurrent use.
type Coordinator struct {
	cfg   Config
	epoch atomic.Uint64 // bumped by Invalidate; part of every share key

	mu       sync.Mutex
	inflight map[identity]*call // joinable until the pass completes
	open     map[objIdent]*call // un-fired mergeable batches
	stats    Stats
}

// identity is the singleflight join key: one exact request on one object
// at one invalidation epoch.
type identity struct {
	obj objIdent
	fp  string
}

// objIdent is the batching key: one object of one registered backend at
// one epoch.
type objIdent struct {
	backend, bucket, object string
	epoch                   uint64
}

// New returns a coordinator with cfg's zero fields defaulted.
func New(cfg Config) *Coordinator {
	if cfg.Window == 0 {
		cfg.Window = DefaultWindow
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 16
	}
	return &Coordinator{
		cfg:      cfg,
		inflight: map[identity]*call{},
		open:     map[objIdent]*call{},
	}
}

// Batches reports whether compatible scans wait out a window to merge into
// one pass (false on a nil coordinator: no sharing at all). The engine's
// access planner asks: a scan it turns into an aggregate request leaves the
// batch.
func (c *Coordinator) Batches() bool { return c != nil && c.cfg.Window > 0 && c.cfg.MaxBatch > 1 }

// Invalidate voids the coordinator's share space: requests arriving after
// the call can no longer join passes started before it. In-flight passes
// complete for their existing waiters (their data predates the
// invalidation for all of them equally).
func (c *Coordinator) Invalidate() { c.epoch.Add(1) }

// Stats snapshots the counters.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// call is one backend pass in progress, shared by every request that
// joined it.
type call struct {
	done    chan struct{} // closed after results are routed
	full    chan struct{} // closed when the batch hits MaxBatch
	entries []*entry      // distinct requests, arrival order
	byFP    map[string]*entry
	fired   bool // merged/solo request issued; batch membership is frozen
	merged  bool
	sqlLen  int // the members' SQL bytes: the merged request's size, estimated

	// Completion state, written once before close(done).
	err     error
	pass    selectengine.Stats
	sharers int
	// leaderTaken hands the un-coalesced stamp to exactly one waiter (the
	// cache fill belongs to it).
	leaderTaken bool
}

// entry is one distinct request inside a call, with however many waiters
// coalesced onto it.
type entry struct {
	req     selectengine.Request
	sel     *sqlparse.Select // parsed form; nil when not merge-eligible
	waiters int

	res       *selectengine.Result
	err       error
	localRows int64
}

// mergeable returns req's statement when it can participate in a
// predicate-merged pass: a plain single-table scan — arbitrary
// non-aggregate projections and an optional WHERE — with no join, group,
// order, limit or scan range. Everything such a query produces is a pure
// function of its referenced input columns, which the merged pass carries
// verbatim, so local re-execution is exact.
func mergeable(req selectengine.Request) *sqlparse.Select {
	if req.ScanRange != nil || !req.HasHeader {
		return nil
	}
	sel, err := req.Statement()
	if err != nil {
		return nil
	}
	if len(sel.Joins) > 0 || len(sel.GroupBy) > 0 || len(sel.OrderBy) > 0 || sel.Limit >= 0 {
		return nil
	}
	if sel.HasAggregates() {
		return nil
	}
	return sel
}

// compatible reports whether a new mergeable request can batch with the
// call's existing entries: same header mode and capability set (they are
// part of the response semantics) and same pushed table term.
func compatible(c *call, req selectengine.Request, sel *sqlparse.Select) bool {
	first := c.entries[0]
	if first.sel == nil {
		return false
	}
	return req.HasHeader == first.req.HasHeader &&
		req.Capabilities == first.req.Capabilities &&
		strings.EqualFold(sel.Table, first.sel.Table)
}

// layer is the coordinator as a stage of one backend's select pipeline.
type layer struct {
	c       *Coordinator
	backend string
	inner   s3api.Selector
}

// Over returns a Selector that coordinates inner's requests, keyed under
// the registered backend name (one coordinator serves every backend of a
// DB). Every call that reaches inner is one backend pass.
func (c *Coordinator) Over(backend string, inner s3api.Selector) s3api.Selector {
	return &layer{c: c, backend: backend, inner: inner}
}

// Lend coordinates one request: it joins an identical in-flight pass,
// joins an open batch on the same object, or starts a new pass (waiting
// out the batching window when the request is merge-eligible). sink gets
// the caller's own header over its rows — the shared response verbatim for
// singleflight shares, the locally re-filtered rows for merged ones —
// stamped with the pass accounting. On any shared-pass failure every
// waiter falls back to its own direct backend call, so a sharer never
// fares worse than running alone.
func (l *layer) Lend(ctx context.Context, bucket, key string, req selectengine.Request, sink func(*selectengine.Result) error) error {
	c := l.c
	fp := req.Fingerprint()
	obj := objIdent{backend: l.backend, bucket: bucket, object: key, epoch: c.epoch.Load()}
	id := identity{obj: obj, fp: fp}
	var sel *sqlparse.Select
	if c.cfg.Window > 0 {
		sel = mergeable(req)
	}

	c.mu.Lock()
	c.stats.Selects++
	// Join an identical request already in flight (fired or not).
	if cl, ok := c.inflight[id]; ok {
		ent := cl.byFP[fp]
		ent.waiters++
		c.mu.Unlock()
		return l.wait(ctx, obj, cl, ent, req, sink)
	}
	// Join an open batch on the same object with a new predicate.
	if cl, ok := c.open[obj]; ok && sel != nil && !cl.fired &&
		len(cl.entries) < c.cfg.MaxBatch &&
		cl.sqlLen+len(req.SQL) < selectengine.MaxSQLBytes/2 &&
		compatible(cl, req, sel) {
		ent := &entry{req: req, sel: sel, waiters: 1}
		cl.entries = append(cl.entries, ent)
		cl.byFP[fp] = ent
		cl.sqlLen += len(req.SQL)
		c.inflight[id] = cl
		if len(cl.entries) >= c.cfg.MaxBatch {
			close(cl.full)
		}
		c.mu.Unlock()
		return l.wait(ctx, obj, cl, ent, req, sink)
	}
	// Start a new pass, leading it.
	cl := &call{
		done: make(chan struct{}),
		full: make(chan struct{}),
		byFP: map[string]*entry{},
	}
	ent := &entry{req: req, sel: sel, waiters: 1}
	cl.entries = []*entry{ent}
	cl.byFP[fp] = ent
	cl.sqlLen = len(req.SQL)
	c.inflight[id] = cl
	// Register as an open batch only when another request could actually
	// join it (merging on, batch bigger than one).
	batching := sel != nil && c.cfg.MaxBatch > 1
	if batching {
		c.open[obj] = cl
	}
	c.mu.Unlock()

	return l.lead(ctx, obj, cl, batching, req, sink)
}

// lead runs the pass: wait out the batching window (mergeable passes
// only), freeze the batch, issue one backend call, route rows to every
// entry, publish the completion and hand the leader its entry's result
// (wait), all in the call's sink: a solo pass nobody joined stays lent, one
// shared across goroutines is owned first.
func (l *layer) lead(ctx context.Context, obj objIdent, cl *call, batching bool, req selectengine.Request, sink func(*selectengine.Result) error) error {
	c := l.c
	if batching {
		timer := time.NewTimer(c.cfg.Window)
		select {
		case <-timer.C:
		case <-cl.full:
		case <-ctx.Done():
		}
		timer.Stop()
	}

	// Freeze the batch: no new entries may join, fp joins may continue
	// until completion.
	c.mu.Lock()
	cl.fired = true
	if c.open[obj] == cl {
		delete(c.open, obj)
	}
	entries := make([]*entry, len(cl.entries))
	copy(entries, cl.entries)
	c.mu.Unlock()

	// A solo pass (possibly with many identical waiters) pushes the request
	// verbatim, a merged one the union of the entries'.
	pass := entries[0].req
	if cl.merged = len(entries) > 1; cl.merged {
		pass = mergeRequest(entries)
	}
	passed := false
	err := l.inner.Lend(ctx, obj.bucket, obj.object, pass, func(res *selectengine.Result) error {
		passed = true
		if !cl.merged {
			entries[0].res = res
		} else {
			// Route rows: re-execute each entry's own request (a header, no
			// scan range: mergeable) over the merged response, its header
			// line then its body. The merged pass returned every referenced
			// column verbatim, so this reproduces each direct answer exactly.
			data := append(csvx.Encode(res.Columns, nil), res.Body...)
			for _, ent := range entries {
				sub, subErr := selectengine.Execute(data, ent.req)
				if subErr != nil {
					ent.err = subErr
					continue
				}
				ent.res = sub
				ent.localRows = res.Stats.RowsReturned
			}
		}
		l.publish(obj, cl, res, nil)
		return l.wait(ctx, obj, cl, entries[0], req, sink)
	})
	if passed {
		return err
	}
	l.publish(obj, cl, nil, err)
	return l.wait(ctx, obj, cl, entries[0], req, sink)
}

// publish seals the call against joins, snapshots its sharer count —
// consistent for every waiter — and counts the pass (its response res, or
// its error), then owns a solo response several waiters share and wakes them.
func (l *layer) publish(obj objIdent, cl *call, res *selectengine.Result, err error) {
	c := l.c
	c.mu.Lock()
	if cl.err = err; res != nil {
		cl.pass = res.Stats
	}
	for fp, ent := range cl.byFP {
		if c.inflight[identity{obj: obj, fp: fp}] == cl {
			delete(c.inflight, identity{obj: obj, fp: fp})
		}
		cl.sharers += ent.waiters
	}
	c.stats.BackendSelects++
	if cl.sharers > 1 {
		c.stats.SharedPasses++
		c.stats.Sharers += int64(cl.sharers)
		c.stats.Coalesced += int64(cl.sharers - 1)
		c.stats.ScanBytesSaved += int64(cl.sharers-1) * cl.pass.BytesScanned
		c.stats.ReturnBytesSaved += int64(cl.sharers-1) * cl.pass.BytesReturned
	}
	if cl.merged {
		c.stats.MergedPasses++
	}
	c.mu.Unlock()
	if res != nil && cl.sharers > 1 && !cl.merged {
		cl.entries[0].res = res.Own()
	}
	close(cl.done)
}

// wait blocks until the call completes, then lends sink the caller's own
// copy of its entry's result, stamped — falling back to a direct backend
// call when the pass or this entry's slice of it failed.
func (l *layer) wait(ctx context.Context, obj objIdent, cl *call, ent *entry, req selectengine.Request, sink func(*selectengine.Result) error) error {
	<-cl.done
	c := l.c
	if cl.err != nil || ent.err != nil {
		// Re-issue the caller's own request directly; the result is
		// exactly a solo pass.
		c.mu.Lock()
		c.stats.Fallbacks++
		c.stats.BackendSelects++
		c.mu.Unlock()
		return l.inner.Lend(ctx, obj.bucket, obj.object, req, func(res *selectengine.Result) error {
			res.Served = selectengine.Served{Sharers: 1, Pass: res.Stats}
			return sink(res)
		})
	}
	c.mu.Lock()
	coalesced := cl.leaderTaken
	cl.leaderTaken = true
	c.mu.Unlock()
	// The entry's result is shared by every waiter coalesced onto it.
	res := *ent.res
	res.Served = selectengine.Served{
		Sharers:   cl.sharers,
		Coalesced: coalesced,
		Pass:      cl.pass,
		LocalRows: ent.localRows,
	}
	return sink(&res)
}

// mergeRequest builds the one pushed Select standing in for every entry:
// the union of the referenced columns (star if any entry projects star)
// and the OR of the filters (no WHERE if any entry scans unfiltered).
func mergeRequest(entries []*entry) selectengine.Request {
	var (
		items   []sqlparse.SelectItem
		seen    = map[string]bool{}
		star    bool
		where   sqlparse.Expr
		allHave = true
	)
	addCols := func(e sqlparse.Expr) {
		for _, col := range sqlparse.Columns(e) {
			if k := sqlparse.NameKey(col); !seen[k] {
				seen[k] = true
				items = append(items, sqlparse.SelectItem{Expr: &sqlparse.Column{Name: col}})
			}
		}
	}
	for _, ent := range entries {
		for _, it := range ent.sel.Items {
			if _, isStar := it.Expr.(*sqlparse.Star); isStar {
				star = true
				continue
			}
			addCols(it.Expr)
		}
		if ent.sel.Where == nil {
			allHave = false
			continue
		}
		addCols(ent.sel.Where)
		if where == nil {
			where = ent.sel.Where
		} else {
			where = &sqlparse.Binary{Op: sqlparse.OpOr, L: where, R: ent.sel.Where}
		}
	}
	merged := &sqlparse.Select{Items: items, Table: entries[0].sel.Table, Limit: -1}
	if star || len(items) == 0 {
		merged.Items = []sqlparse.SelectItem{{Expr: &sqlparse.Star{}}}
	}
	if allHave {
		merged.Where = where
	}
	return selectengine.NewRequest(merged, entries[0].req.HasHeader, entries[0].req.Capabilities)
}
