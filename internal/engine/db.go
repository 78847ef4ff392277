package engine

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"

	"pushdowndb/internal/cloudsim"
	"pushdowndb/internal/colformat"
	"pushdowndb/internal/csvx"
	"pushdowndb/internal/expr"
	"pushdowndb/internal/index"
	"pushdowndb/internal/obs"
	"pushdowndb/internal/rescache"
	"pushdowndb/internal/s3api"
	"pushdowndb/internal/scanshare"
	"pushdowndb/internal/selectengine"
	"pushdowndb/internal/sqlparse"
	"pushdowndb/internal/value"
	"pushdowndb/internal/vec"
)

// DB is a PushdownDB instance bound to one bucket name served by one or
// more storage backends. Backends are registered at Open time with
// functional options; a table→backend catalog routes each table to the
// backend its objects live on, and everything the engine needs to know
// about a backend — its S3 Select capabilities, its network/pricing
// profile, its error semantics — comes from the backend itself
// (s3api.Backend is self-describing), not from DB fields.
type DB struct {
	bucket      string
	backends    map[string]s3api.Backend
	defaultName string
	catalog     map[string]string // lower(table) -> backend name

	// Cfg holds the compute node's cost-model constants; per-backend
	// network and RTT terms come from each backend's Profile.
	Cfg cloudsim.Config
	// Pricing is the base price book; per-backend request/transfer rates
	// come from each backend's Profile.
	Pricing cloudsim.Pricing
	// Sim maps this run onto the paper's testbed dimensions for the
	// virtual clock and pricing (unit scale by default).
	Sim cloudsim.Scale
	// MaxScanParallel bounds concurrent partition requests (compute node
	// connection limit). Zero means one goroutine per partition.
	MaxScanParallel int

	// vectorized selects the batched columnar local operators (the
	// default). WithVectorized(false) pins the sequential row-at-a-time
	// reference they must match byte for byte (see operators.go).
	vectorized bool

	// statsCache holds planner table statistics keyed by
	// backend/bucket/table/filter/index-predicate, so repeated queries plan
	// from cached stats instead of re-issuing COUNT(*) probes.
	statsMu    sync.Mutex
	statsCache map[string]cachedStats

	// idxMu guards idxMemo, the per-table cache of validated index
	// manifests (see indexManifest). Keyed by lower(table); an empty
	// manifest records "no indexes" so unindexed tables cost one catalog
	// read per DB, not one per query.
	idxMu   sync.Mutex
	idxMemo map[string]*index.Manifest

	// resultCache caches S3 Select responses across queries (WithResultCache;
	// nil = caching off). Hits skip the backend entirely and are metered as
	// free decodes (cloudsim.Phase.AddCacheHit).
	resultCache *rescache.Cache

	// scanShare coalesces concurrent S3 Selects into shared backend
	// passes (WithScanSharing; nil = off). It sits below the result
	// cache: cache hits never reach it, cache misses share one pass.
	scanShare *scanshare.Coordinator

	// hookMu guards queryHook: a long-lived server installs its audit hook
	// after Open while queries may already be in flight.
	hookMu    sync.RWMutex
	queryHook QueryHook
}

// QueryHook observes every SQL statement executed through the DB's text
// entry points (Query/QueryContext/ExecStatement): the statement, the
// execution's metrics (nil for DDL and for statements rejected before an
// execution started) and the outcome. Hooks run synchronously on the
// query's goroutine after the statement finishes — a server's audit log
// and per-tenant billing hang off this, keyed by whatever it stashed in
// ctx. Hooks must be safe for concurrent use.
type QueryHook func(ctx context.Context, sql string, exec *Exec, err error)

// WithQueryHook installs a query hook at Open time.
func WithQueryHook(h QueryHook) Option {
	return func(db *DB) error {
		db.queryHook = h
		return nil
	}
}

// SetQueryHook installs (or, with nil, removes) the query hook on a live
// DB. Safe to call while queries are running; statements already past
// their hook point are unaffected.
func (db *DB) SetQueryHook(h QueryHook) {
	db.hookMu.Lock()
	db.queryHook = h
	db.hookMu.Unlock()
}

// fireQueryHook invokes the installed hook, if any.
func (db *DB) fireQueryHook(ctx context.Context, sql string, exec *Exec, err error) {
	db.hookMu.RLock()
	h := db.queryHook
	db.hookMu.RUnlock()
	if h != nil {
		h(ctx, sql, exec, err)
	}
}

// Option configures Open.
type Option func(*DB) error

// WithBackend registers a storage backend under a name. The first
// registered backend becomes the default unless WithDefaultBackend says
// otherwise.
func WithBackend(name string, b s3api.Backend) Option {
	return func(db *DB) error {
		if name == "" || b == nil {
			return fmt.Errorf("engine: WithBackend needs a name and a backend")
		}
		if _, dup := db.backends[name]; dup {
			return fmt.Errorf("engine: backend %q registered twice", name)
		}
		db.backends[name] = b
		if db.defaultName == "" {
			db.defaultName = name
		}
		return nil
	}
}

// WithDefaultBackend names the backend tables use when the catalog has no
// entry for them.
func WithDefaultBackend(name string) Option {
	return func(db *DB) error {
		db.defaultName = name
		return nil
	}
}

// WithTableBackend maps a table to the backend its partitions live on.
func WithTableBackend(table, backend string) Option {
	return func(db *DB) error {
		db.catalog[strings.ToLower(table)] = backend
		return nil
	}
}

// WithScale sets the simulation scale mapping this run onto paper-size
// data for the virtual clock and cost model.
func WithScale(s cloudsim.Scale) Option {
	return func(db *DB) error {
		db.Sim = s
		return nil
	}
}

// WithWorkers sets the server-side worker budget (Config.Workers).
func WithWorkers(n int) Option {
	return func(db *DB) error {
		db.Cfg.Workers = n
		return nil
	}
}

// WithMaxScanParallel bounds concurrent partition requests.
func WithMaxScanParallel(n int) Option {
	return func(db *DB) error {
		db.MaxScanParallel = n
		return nil
	}
}

// WithResultCache enables the compute-tier select-result cache with the
// given byte budget: S3 Select responses are cached per (backend, bucket,
// partition, canonical select expression) and repeated scans are served
// locally — no storage request, nothing billed, only the response re-parse
// on the virtual clock. The planner sees residency through
// cloudsim.PlanTableStats.CachedFrac and can flip join strategy when a
// probe side is already resident. A budget <= 0 leaves caching off.
func WithResultCache(budgetBytes int64) Option {
	return func(db *DB) error {
		if budgetBytes > 0 {
			db.resultCache = rescache.New(budgetBytes)
		}
		return nil
	}
}

// WithScanSharing enables the scan-sharing coordinator: concurrent
// identical S3 Selects coalesce into one in-flight backend call
// (singleflight), and — within cfg.Window — compatible simple scans on
// the same partition merge into one pushed Select carrying the OR of
// their filters and the union of their columns, with each query's own
// predicate re-applied locally. Shared passes are billed once and split
// across sharers (cloudsim.Phase.AddSharedSelectRequest), so under
// concurrency the per-query cost of touching a hot table falls with the
// number of queries touching it. Composes with WithResultCache: hits
// skip sharing entirely; misses share the refill.
func WithScanSharing(cfg scanshare.Config) Option {
	return func(db *DB) error {
		db.scanShare = scanshare.New(cfg)
		return nil
	}
}

// WithVectorized(false) runs every local operator on the sequential
// row-at-a-time reference instead of the vectorized kernels. The results
// are byte-identical; the switch exists so differential tests and the
// benchmark oracle can compare the two, not as a tuning knob.
func WithVectorized(on bool) Option {
	return func(db *DB) error {
		db.vectorized = on
		return nil
	}
}

// Open returns a DB over the named bucket with the paper's default cost
// model and pricing. At least one backend must be registered via
// WithBackend; the table catalog and the default backend must reference
// registered names.
func Open(bucket string, opts ...Option) (*DB, error) {
	db := &DB{
		bucket:     bucket,
		backends:   map[string]s3api.Backend{},
		catalog:    map[string]string{},
		Cfg:        cloudsim.DefaultConfig(),
		Pricing:    cloudsim.DefaultPricing(),
		Sim:        cloudsim.Unit(),
		vectorized: true,
	}
	for _, o := range opts {
		if err := o(db); err != nil {
			return nil, err
		}
	}
	if len(db.backends) == 0 {
		return nil, fmt.Errorf("engine: Open needs at least one WithBackend")
	}
	if _, ok := db.backends[db.defaultName]; !ok {
		return nil, fmt.Errorf("engine: default backend %q is not registered", db.defaultName)
	}
	for table, name := range db.catalog {
		if _, ok := db.backends[name]; !ok {
			return nil, fmt.Errorf("engine: table %q is mapped to unregistered backend %q", table, name)
		}
	}
	return db, nil
}

// Bucket returns the bucket name this DB reads tables from.
func (db *DB) Bucket() string { return db.bucket }

// BackendNames lists the registered backends, sorted, default first.
func (db *DB) BackendNames() []string {
	names := make([]string, 0, len(db.backends))
	for n := range db.backends {
		if n != db.defaultName {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return append([]string{db.defaultName}, names...)
}

// baseTable maps an object-namespace name to the catalog table owning it:
// index pseudo-tables ("t/_index/col") resolve to "t", so index objects
// always live — and are priced — on their data table's backend.
func baseTable(name string) string {
	if i := strings.IndexByte(name, '/'); i >= 0 {
		return name[:i]
	}
	return name
}

// BackendFor resolves the backend a table's objects live on: the catalog
// entry if present, the default backend otherwise. Index pseudo-tables
// resolve through their data table.
func (db *DB) BackendFor(table string) (string, s3api.Backend) {
	if name, ok := db.catalog[strings.ToLower(baseTable(table))]; ok {
		return name, db.backends[name]
	}
	return db.defaultName, db.backends[db.defaultName]
}

// backendFor is BackendFor without the name.
func (db *DB) backendFor(table string) s3api.Backend {
	_, b := db.BackendFor(table)
	return b
}

// profileFor returns the cost profile of the table's backend.
func (db *DB) profileFor(table string) cloudsim.Profile {
	return db.backendFor(table).Profile()
}

// InvalidateStats drops everything the DB has cached across queries: the
// planner's table statistics AND all cached select results. This is the
// invalidation contract: loading, reloading or mutating any table must be
// followed by InvalidateStats (or the targeted InvalidateTable) before the
// next query, otherwise the planner may plan from stale cardinalities and —
// with WithResultCache enabled — scans may serve rows of the old table
// bytes. Invalidation also voids cache fills that are in flight when it
// runs (generation counters in rescache), so a racing query cannot
// resurrect pre-reload rows.
func (db *DB) InvalidateStats() {
	db.statsMu.Lock()
	db.statsCache = nil
	db.statsMu.Unlock()
	db.idxMu.Lock()
	db.idxMemo = nil
	db.idxMu.Unlock()
	if db.resultCache != nil {
		db.resultCache.InvalidateAll()
	}
	if db.scanShare != nil {
		// Post-invalidation queries must not join passes started against
		// the old table bytes.
		db.scanShare.Invalidate()
	}
}

// InvalidateTable drops the cached planner statistics, cached select
// results and the in-memory index-manifest view of one table only (same
// contract as InvalidateStats, scoped to the table whose objects changed).
// The name is case-sensitive, exactly as queries reference it: partition
// objects live under "<table>/part..." and the caches key by that same
// spelling; index artifacts under "<table>/_index/..." are covered too, so
// a reloaded table cannot serve byte ranges through a pre-reload index —
// the manifest is re-read and entries whose recorded data-partition sizes
// no longer match are dropped until CREATE INDEX rebuilds them.
func (db *DB) InvalidateTable(table string) {
	db.statsMu.Lock()
	for k := range db.statsCache {
		// Stats keys are backend\x00bucket\x00table\x00filter[\x00...];
		// index pseudo-tables ("table/_index/col") invalidate with their
		// data table.
		parts := strings.SplitN(k, "\x00", 4)
		if len(parts) == 4 && baseTable(parts[2]) == table {
			delete(db.statsCache, k)
		}
	}
	db.statsMu.Unlock()
	db.idxMu.Lock()
	delete(db.idxMemo, strings.ToLower(table))
	db.idxMu.Unlock()
	if db.resultCache != nil {
		db.resultCache.InvalidatePrefix(db.bucket, table+"/")
	}
	if db.scanShare != nil {
		// The share epoch is coordinator-wide (cheap and always correct);
		// per-object precision comes from the cache generation in the
		// share key when a result cache is configured.
		db.scanShare.Invalidate()
	}
}

// ResultCacheStats snapshots the select-result cache's counters; ok is
// false when the DB was opened without WithResultCache.
func (db *DB) ResultCacheStats() (s rescache.Stats, ok bool) {
	if db.resultCache == nil {
		return rescache.Stats{}, false
	}
	return db.resultCache.Stats(), true
}

// ScanShareStats snapshots the scan-sharing coordinator's counters; ok is
// false when the DB was opened without WithScanSharing.
func (db *DB) ScanShareStats() (s scanshare.Stats, ok bool) {
	if db.scanShare == nil {
		return scanshare.Stats{}, false
	}
	return db.scanShare.Stats(), true
}

// Exec is the context of a single query execution: a cancellation context,
// a virtual clock, and a stage counter. Operators allocate stages in
// order; phases within one stage overlap on the clock.
type Exec struct {
	db  *DB
	ctx context.Context
	// Metrics is the query's virtual clock and cost accumulator.
	Metrics *cloudsim.Metrics

	// plan is the join plan Query built for this execution (nil for
	// single-table queries and explicit operator calls).
	plan *QueryPlan

	// access is the single-table access-path decision (nil when the query
	// was a join, ran through explicit operators, or its table had no
	// usable secondary index).
	access *AccessPlan

	// partsMemo caches partition listings per table for this execution, so
	// planning (header probes, statistics, cache-residency checks) and the
	// execution scans share one List call per table instead of re-listing.
	partsMu   sync.Mutex
	partsMemo map[string][]string

	// trace is the query's obs span tree, picked up from the context in
	// NewExecContext; nil when the caller attached none (the untraced
	// fast path: every span helper short-circuits on this pointer).
	trace *obs.Trace
	// spanParent is the span sequential statement code attaches children
	// to (the trace root until a statement span installs itself).
	spanMu     sync.Mutex
	spanParent *obs.Span

	mu    sync.Mutex
	stage int
}

// QueryPlan returns the join plan this execution ran (nil when the query
// was single-table or driven through the explicit operator APIs).
func (e *Exec) QueryPlan() *QueryPlan { return e.plan }

// Access returns the single-table access-path plan this execution ran
// (nil when no secondary index was considered).
func (e *Exec) Access() *AccessPlan { return e.access }

// NewExec starts a query execution context with background cancellation.
func (db *DB) NewExec() *Exec {
	//lint:ignore ctxflow context-free compatibility wrapper; the root context is born here
	return db.NewExecContext(context.Background())
}

// NewExecContext starts a query execution context; canceling ctx aborts
// the execution's storage fan-outs.
func (db *DB) NewExecContext(ctx context.Context) *Exec {
	if ctx == nil {
		//lint:ignore ctxflow nil-guard: a nil ctx must degrade to Background, not panic
		ctx = context.Background()
	}
	return &Exec{
		db: db, ctx: ctx,
		Metrics: cloudsim.NewMetricsScaled(db.Cfg, db.Sim),
		trace:   obs.FromContext(ctx),
	}
}

// DB returns the owning database.
func (e *Exec) DB() *DB { return e.db }

// Context returns the execution's cancellation context.
func (e *Exec) Context() context.Context { return e.ctx }

// workers is the server-side parallelism budget local operators run with
// (the cost model's Workers knob, capped at Cores).
func (e *Exec) workers() int { return e.db.Cfg.WorkerBudget() }

// NextStage allocates the next sequential stage index.
func (e *Exec) NextStage() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := e.stage
	e.stage++
	return s
}

// RuntimeSeconds returns the query's virtual runtime so far.
func (e *Exec) RuntimeSeconds() float64 { return e.Metrics.RuntimeSeconds() }

// Cost returns the query's cost so far under the DB's pricing (phases run
// against a backend bill at that backend's profile rates).
func (e *Exec) Cost() cloudsim.CostBreakdown { return e.Metrics.Cost(e.db.Pricing) }

// tablePhase opens a metrics phase whose storage requests run against the
// table's backend, so the phase is timed and priced under that backend's
// profile.
func (e *Exec) tablePhase(name string, stage int, table string) *cloudsim.Phase {
	return e.Metrics.PhaseProfile(name, stage, e.db.profileFor(table))
}

// parts lists the partition objects of a table on its backend, memoized
// for the lifetime of this execution (tables must not change mid-query —
// the invalidation contract requires InvalidateStats/InvalidateTable
// between a mutation and the next query anyway).
func (e *Exec) parts(table string) ([]string, error) {
	e.partsMu.Lock()
	if keys, ok := e.partsMemo[table]; ok {
		e.partsMu.Unlock()
		return keys, nil
	}
	e.partsMu.Unlock()
	keys, err := e.db.backendFor(table).List(e.ctx, e.db.bucket, table+"/part")
	if err != nil {
		return nil, err
	}
	if len(keys) == 0 {
		// A kinded not-found, so an unknown table surfaces at the server as
		// bad_request rather than a 500 "internal".
		name, _ := e.db.BackendFor(table)
		return nil, s3api.NewError("list", e.db.bucket, table+"/part", s3api.KindNotFound,
			fmt.Errorf("engine: table %q has no partitions in bucket %q on backend %q",
				table, e.db.bucket, name))
	}
	e.partsMu.Lock()
	if e.partsMemo == nil {
		e.partsMemo = map[string][]string{}
	}
	e.partsMemo[table] = keys
	e.partsMu.Unlock()
	return keys, nil
}

// forEachPart runs fn over every partition with bounded parallelism. The
// first error cancels the shared context and stops new partitions from
// launching; in-flight calls see the cancellation through ctx. Canceling
// the execution's own context aborts the fan-out the same way.
func (e *Exec) forEachPart(keys []string, fn func(ctx context.Context, i int, key string) error) error {
	limit := e.db.MaxScanParallel
	if limit <= 0 || limit > len(keys) {
		limit = len(keys)
	}
	ctx, cancel := context.WithCancel(e.ctx)
	defer cancel()
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		cancel()
	}
	sem := make(chan struct{}, limit)
launch:
	for i, k := range keys {
		// Acquire a slot, bailing out as soon as the fan-out is canceled
		// (by an earlier error or by the caller) instead of queuing more
		// work behind it.
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			break launch
		}
		if ctx.Err() != nil {
			break launch
		}
		wg.Add(1)
		go func(i int, k string) {
			defer wg.Done()
			defer func() { <-sem }()
			if err := fn(ctx, i, k); err != nil {
				fail(err)
			}
		}(i, k)
	}
	wg.Wait()
	mu.Lock()
	err := firstErr
	mu.Unlock()
	if err != nil {
		return err
	}
	// All launched work succeeded, but the caller's context may have
	// stopped the loop before every partition ran.
	return e.ctx.Err()
}

// LoadTable fetches every partition with plain GETs and parses the CSV on
// the server — the paper's "server-side" baseline path.
func (e *Exec) LoadTable(phaseName string, stage int, table string) (*Relation, error) {
	keys, err := e.parts(table)
	if err != nil {
		return nil, err
	}
	backend := e.db.backendFor(table)
	sp := e.beginSpan(phaseName)
	phase := e.tablePhase(phaseName, stage, table)
	rels := make([]*Relation, len(keys))
	// The per-partition decodes already run concurrently under
	// forEachPart; split the worker budget across that fan-out so total
	// decode concurrency matches the Cores budget the cost model prices.
	fanout := e.db.MaxScanParallel
	if fanout <= 0 || fanout > len(keys) {
		fanout = len(keys)
	}
	decodeWorkers := e.workers() / fanout
	if decodeWorkers < 1 {
		decodeWorkers = 1
	}
	err = e.forEachPart(keys, func(ctx context.Context, i int, key string) error {
		psp := sp.Child("get " + key)
		defer psp.End()
		data, err := backend.Get(ctx, e.db.bucket, key)
		if err != nil {
			return err
		}
		phase.AddGetRequest(int64(len(data)))
		psp.SetInt("bytes", int64(len(data)))
		if colformat.IsColumnar(data) {
			// Columnar partitions decode straight into typed vectors; the
			// CSV decoder would mis-parse the binary layout.
			b, err := vec.FromColumnar(data, decodeWorkers)
			if err != nil {
				return err
			}
			rels[i] = fromVecRows(b.Cols, b.ToRows())
			return nil
		}
		header, rows, err := csvx.Decode(data, true)
		if err != nil {
			return err
		}
		rels[i] = FromStringsN(header, rows, decodeWorkers)
		return nil
	})
	if err != nil {
		endSpanErr(sp, err)
		return nil, err
	}
	out := &Relation{}
	for _, r := range rels {
		if err := out.Concat(r); err != nil {
			endSpanErr(sp, err)
			return nil, err
		}
	}
	sp.SetInt("rows", int64(len(out.Rows)))
	e.endPhaseSpan(sp, phase)
	return out, nil
}

// selectOnParts runs the same S3 Select SQL against every partition of the
// table on its backend (with the backend's advertised capabilities) and
// returns the per-partition results, recording request metrics. Requests
// are served through the DB's result cache when one is configured. Each
// partition select becomes a child span of sp (nil when untraced).
func (e *Exec) selectOnParts(phase *cloudsim.Phase, sp *obs.Span, table, sql string, mutate func(i int, req *selectengine.Request)) ([]*selectengine.Result, error) {
	keys, err := e.parts(table)
	if err != nil {
		return nil, err
	}
	backendName, backend := e.db.BackendFor(table)
	caps := backend.Capabilities()
	results := make([]*selectengine.Result, len(keys))
	err = e.forEachPart(keys, func(ctx context.Context, i int, key string) error {
		req := selectengine.Request{SQL: sql, HasHeader: true, Capabilities: caps}
		if mutate != nil {
			mutate(i, &req)
		}
		psp := sp.Child("select " + key)
		res, err := e.doSelect(ctx, phase, psp, backendName, backend, key, req)
		psp.End()
		if err != nil {
			return fmt.Errorf("engine: select on %s: %w", key, err)
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// doSelect issues one S3 Select against an object, consulting the result
// cache first. A hit skips the backend and is metered as a free local
// decode; a miss runs the request, meters it normally and fills the cache
// at the generation snapshotted before the request (so a fill racing a
// table invalidation is discarded). When scan sharing is on, the miss
// path routes through the coordinator: concurrent misses on the same
// object share one backend pass, each sharer is billed its fraction, and
// only the pass leader fills the cache (the other sharers record an
// in-flight dedup on the cache stats). Cached results are shared across
// queries — callers must not mutate them.
func (e *Exec) doSelect(ctx context.Context, phase *cloudsim.Phase, sp *obs.Span, backendName string, backend s3api.Backend, key string, req selectengine.Request) (*selectengine.Result, error) {
	c := e.db.resultCache
	var (
		ck  rescache.Key
		gen uint64
	)
	if c != nil {
		ck = rescache.Key{
			Backend: backendName, Bucket: e.db.bucket, Object: key,
			Query: selectCacheQuery(req),
		}
		if res, ok := c.Get(ck); ok {
			phase.AddCacheHit(res.Stats.BytesReturned)
			sp.SetStr("cache", "hit")
			sp.SetInt("rows", int64(len(res.Rows)))
			sp.SetInt("bytes", res.Stats.BytesReturned)
			return res, nil
		}
		gen = c.Generation(e.db.bucket, key)
		sp.SetStr("cache", "miss")
	}
	sh := e.db.scanShare
	if sh == nil {
		res, err := backend.Select(ctx, e.db.bucket, key, req)
		if err != nil {
			return nil, err
		}
		phase.AddSelectRequest(selectReqStats(res.Stats))
		sp.SetInt("rows", int64(len(res.Rows)))
		sp.SetInt("bytes", res.Stats.BytesReturned)
		if c != nil {
			c.Put(ck, gen, res)
		}
		return res, nil
	}
	out, err := sh.Select(ctx, scanshare.ObjectKey{
		Backend: backendName, Bucket: e.db.bucket, Object: key, Gen: gen,
	}, req, func(ctx context.Context, r selectengine.Request) (*selectengine.Result, error) {
		return backend.Select(ctx, e.db.bucket, key, r)
	})
	if err != nil {
		return nil, err
	}
	if out.Sharers > 1 {
		phase.AddSharedSelectRequest(selectReqStats(out.Pass), int64(out.Sharers), out.LocalRows)
		sp.SetInt("sharers", int64(out.Sharers))
	} else {
		phase.AddSelectRequest(selectReqStats(out.Pass))
	}
	if out.Leader {
		sp.SetStr("share", "leader")
	} else {
		sp.SetStr("share", "sharer")
	}
	sp.SetInt("rows", int64(len(out.Res.Rows)))
	sp.SetInt("bytes", out.Res.Stats.BytesReturned)
	if c != nil {
		if out.Leader {
			c.Put(ck, gen, out.Res)
		} else {
			c.NoteInflightDedup()
		}
	}
	return out.Res, nil
}

// selectCacheQuery renders the canonical cache fingerprint of a select
// request: the SQL plus every request parameter that changes the response
// (header mode, capability flags, scan range).
func selectCacheQuery(req selectengine.Request) string {
	var b strings.Builder
	b.WriteString(req.SQL)
	fmt.Fprintf(&b, "\x00h=%t\x00g=%t\x00b=%t",
		req.HasHeader, req.Capabilities.AllowGroupBy, req.Capabilities.AllowBloomContains)
	if req.ScanRange != nil {
		fmt.Fprintf(&b, "\x00r=%d-%d", req.ScanRange.Start, req.ScanRange.End)
	}
	return b.String()
}

// SelectRows runs sql on every partition of table and concatenates the
// returned rows into a typed relation.
func (e *Exec) SelectRows(phaseName string, stage int, table, sql string) (*Relation, error) {
	sp := e.beginSpan(phaseName)
	phase := e.tablePhase(phaseName, stage, table)
	results, err := e.selectOnParts(phase, sp, table, sql, nil)
	if err != nil {
		endSpanErr(sp, err)
		return nil, err
	}
	dec := sp.Child("decode")
	out := &Relation{}
	for _, res := range results {
		if err := out.Concat(FromStringsN(res.Columns, res.Rows, e.workers())); err != nil {
			endSpanErr(dec, err)
			endSpanErr(sp, err)
			return nil, err
		}
	}
	dec.SetInt("rows", int64(len(out.Rows)))
	dec.End()
	sp.SetInt("rows", int64(len(out.Rows)))
	e.endPhaseSpan(sp, phase)
	return out, nil
}

// SelectRowsLimit runs sql with a per-partition LIMIT so that the combined
// row count approaches total (used by sampling operators).
func (e *Exec) SelectRowsLimit(phaseName string, stage int, table, sql string, total int64) (*Relation, error) {
	keys, err := e.parts(table)
	if err != nil {
		return nil, err
	}
	per := total / int64(len(keys))
	if per < 1 {
		per = 1
	}
	return e.SelectRows(phaseName, stage, table, fmt.Sprintf("%s LIMIT %d", sql, per))
}

// SelectAgg runs an aggregate-only sql on every partition and merges the
// single-row results column-wise using the given aggregate functions
// (SUM and COUNT merge by addition, MIN/MAX by comparison).
func (e *Exec) SelectAgg(phaseName string, stage int, table, sql string, merge []sqlparse.AggFunc) (Row, error) {
	sp := e.beginSpan(phaseName)
	phase := e.tablePhase(phaseName, stage, table)
	defer func() { e.endPhaseSpan(sp, phase) }()
	results, err := e.selectOnParts(phase, sp, table, sql, nil)
	if err != nil {
		return nil, err
	}
	states := make([]*expr.AggState, len(merge))
	for i, fn := range merge {
		// COUNT partial results merge by summation.
		if fn == sqlparse.AggCount {
			fn = sqlparse.AggSum
		}
		states[i] = expr.NewAggState(fn)
	}
	for _, res := range results {
		if len(res.Rows) != 1 {
			return nil, fmt.Errorf("engine: aggregate select returned %d rows", len(res.Rows))
		}
		if len(res.Rows[0]) != len(merge) {
			return nil, fmt.Errorf("engine: aggregate select returned %d columns, expected %d",
				len(res.Rows[0]), len(merge))
		}
		for j, f := range res.Rows[0] {
			if err := states[j].Add(value.FromCSV(f)); err != nil {
				return nil, err
			}
		}
	}
	out := make(Row, len(merge))
	for j, st := range states {
		out[j] = st.Final()
	}
	return out, nil
}

// headerProbe is TableHeader's initial ranged-GET size.
const headerProbe = 4096

// TableHeader reads a table's column names with a small ranged GET against
// the first partition (the partitions all share a header row). Header rows
// longer than the probe retry with a doubled range until a newline turns
// up or the object is exhausted (a header-only object with no trailing
// newline is accepted whole).
func (e *Exec) TableHeader(phaseName string, stage int, table string) ([]string, error) {
	keys, err := e.parts(table)
	if err != nil {
		return nil, err
	}
	backend := e.db.backendFor(table)
	sp := e.beginSpan("header " + table)
	phase := e.tablePhase(phaseName, stage, table)
	defer func() { e.endPhaseSpan(sp, phase) }()
	for probe := int64(headerProbe); ; probe *= 2 {
		data, err := backend.GetRange(e.ctx, e.db.bucket, keys[0], 0, probe-1)
		if err != nil {
			return nil, err
		}
		phase.AddGetRequest(int64(len(data)))
		sp.AddInt("bytes", int64(len(data)))
		if int64(len(data)) < probe && colformat.IsColumnar(data) {
			// The whole object fit in the probe and carries the columnar
			// magic (which is tail-only, so detection needs the complete
			// object): answer from the footer schema. Larger columnar
			// objects would need an extra tail request, which would shift
			// the metered request counts this path is priced on.
			r, err := colformat.Open(data)
			if err != nil {
				return nil, err
			}
			schema := r.Schema()
			header := make([]string, len(schema))
			for i, c := range schema {
				header[i] = c.Name
			}
			return header, nil
		}
		if nl := bytes.IndexByte(data, '\n'); nl >= 0 {
			header, _, err := csvx.Decode(data[:nl+1], true)
			return header, err
		}
		if int64(len(data)) < probe {
			// The whole object fit in the probe and holds no newline: it
			// is a single (unterminated) header line.
			header, _, err := csvx.Decode(data, true)
			return header, err
		}
	}
}

// cachedScanFrac reports what fraction of a table's partitions have the
// given pushed scan SQL resident in the result cache (0 with caching off).
// It shares the execution's partition-listing memo, so planning adds no
// extra List call. Residency is peeked without promoting entries.
func (e *Exec) cachedScanFrac(table, sql string) float64 {
	c := e.db.resultCache
	if c == nil || c.Len() == 0 {
		// Empty cache: skip even the (memoized) listing — this runs on
		// every plan of every table, including fully cold first queries.
		return 0
	}
	keys, err := e.parts(table)
	if err != nil {
		return 0
	}
	backendName, backend := e.db.BackendFor(table)
	q := selectCacheQuery(selectengine.Request{
		SQL: sql, HasHeader: true, Capabilities: backend.Capabilities(),
	})
	hits := 0
	for _, k := range keys {
		if c.Contains(rescache.Key{Backend: backendName, Bucket: e.db.bucket, Object: k, Query: q}) {
			hits++
		}
	}
	return float64(hits) / float64(len(keys))
}

// selectReqStats converts select-engine stats into the cost model's
// request record.
func selectReqStats(s selectengine.Stats) cloudsim.SelectReq {
	return cloudsim.SelectReq{
		ScanBytes:       s.BytesScanned,
		ReturnedBytes:   s.BytesReturned,
		Rows:            s.RowsScanned,
		ExprNodes:       s.ExprNodes,
		Cells:           s.CellsDecoded,
		DecompressBytes: s.DecompressBytes,
	}
}

// sqlQuote renders a string as a SQL literal.
func sqlQuote(s string) string {
	return "'" + strings.ReplaceAll(s, "'", "''") + "'"
}

// sqlLiteral renders a group value for embedding in a CASE/NOT IN clause
// or a top-K threshold predicate: bare only when the text round-trips
// canonically as a SQL numeric literal, quoted otherwise. Values that
// merely parse as numbers are not safe bare: "00501" would re-render as
// 501 and stop matching the stored zip-code text, and "NaN"/"Inf"/"0x1p2"
// would be misread as identifiers or fail to parse at all.
func sqlLiteral(s string) string {
	if i, err := strconv.ParseInt(s, 10, 64); err == nil && strconv.FormatInt(i, 10) == s {
		return s
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil &&
		!math.IsNaN(f) && !math.IsInf(f, 0) &&
		strconv.FormatFloat(f, 'f', -1, 64) == s {
		return s
	}
	return sqlQuote(s)
}
