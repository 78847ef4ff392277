package engine

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"pushdowndb/internal/cloudsim"
	"pushdowndb/internal/rescache"
	"pushdowndb/internal/s3api"
	"pushdowndb/internal/scanshare"
)

// DB is a PushdownDB instance bound to one bucket name served by one or
// more storage backends. Backends are registered at Open time with
// functional options; a table→backend catalog routes each table to the
// backend its objects live on, and everything the engine needs to know
// about a backend — its S3 Select capabilities, its network/pricing
// profile, its error semantics — comes from the backend itself
// (s3api.Backend is self-describing), not from DB fields.
type DB struct {
	bucket string
	// stores holds each registered backend's handle, the engine's only way
	// to reach it: a priced storage call there takes the phase it bills.
	// Open composes each handle's select pipeline: the result cache over the
	// scan-sharing coordinator over the backend's own Select, whichever are
	// configured.
	stores      map[string]s3api.Metered
	defaultName string
	catalog     map[string]string // table, as spelled -> backend name

	// Cfg holds the compute node's cost-model constants; per-backend
	// network and RTT terms come from each backend's Profile.
	Cfg cloudsim.Config
	// Pricing is the base price book; per-backend request/transfer rates
	// come from each backend's Profile.
	Pricing cloudsim.Pricing
	// Sim maps this run onto the paper's testbed dimensions for the
	// virtual clock and pricing (unit scale by default).
	Sim cloudsim.Scale

	// oneSpan runs every local operator over one span, not the worker
	// budget's (WithVectorized(false)).
	oneSpan bool

	// statsMu guards what the planner remembers across queries. statsCache
	// holds table statistics keyed by backend/bucket/table/filter/index-
	// predicate, so repeated queries plan from cached stats instead of
	// re-estimating. meta holds each table's catalog metadata (tableMeta),
	// keyed by the table as queries and object keys spell it, so a table
	// without a statistics object or an index costs one read per DB, not
	// one per query. metaGen counts voids, so a read that raced one is not
	// remembered.
	statsMu    sync.Mutex
	statsCache map[string]cachedStats
	meta       map[string]tableMeta
	metaGen    int64

	// resultCache caches S3 Select responses across queries (WithResultCache;
	// nil = caching off) and scanShare coalesces concurrent S3 Selects into
	// shared backend passes (WithScanSharing; nil = off). Both serve queries
	// as layers of selects; the DB keeps them for stats, planner residency
	// checks and invalidation (void).
	resultCache *rescache.Cache
	scanShare   *scanshare.Coordinator

	// hookMu guards queryHook: a long-lived server installs its audit hook
	// after Open while queries may already be in flight.
	hookMu    sync.RWMutex
	queryHook QueryHook
}

// QueryHook observes every SQL statement executed through the DB's text
// entry points (QueryContext, ExecStatement, RunStatement): the statement, the
// execution's metrics (nil for DDL and for statements rejected before an
// execution started) and the outcome. Hooks run synchronously on the
// query's goroutine after the statement finishes — a server's audit log
// and per-tenant billing hang off this, keyed by whatever it stashed in
// ctx. Hooks must be safe for concurrent use.
type QueryHook func(ctx context.Context, sql string, exec *Exec, err error)

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
		if _, dup := db.stores[name]; dup {
			return fmt.Errorf("engine: backend %q registered twice", name)
		}
		db.stores[name] = s3api.NewMetered(name, db.bucket, b)
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

// WithTableBackend maps a table to the backend its partitions live on. The
// table is keyed as spelled, as its object keys are: t and T are two tables.
func WithTableBackend(table, backend string) Option {
	return func(db *DB) error {
		db.catalog[table] = backend
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
// across sharers (see doSelect), so under concurrency the per-query
// cost of touching a hot table falls with the number of queries touching
// it. Composes with WithResultCache: hits skip sharing entirely; misses
// share the refill.
func WithScanSharing(cfg scanshare.Config) Option {
	return func(db *DB) error {
		db.scanShare = scanshare.New(cfg)
		return nil
	}
}

// WithVectorized(false) runs every local operator over one span instead of
// the worker budget's. The results are byte-identical; the switch exists so
// differential tests and the benchmark oracle can compare the two, not as a
// tuning knob. ROADMAP direction 1(b) deletes it.
func WithVectorized(on bool) Option {
	return func(db *DB) error {
		db.oneSpan = !on
		return nil
	}
}

// Open returns a DB over the named bucket with the paper's default cost
// model and pricing. At least one backend must be registered via
// WithBackend; the table catalog and the default backend must reference
// registered names.
func Open(bucket string, opts ...Option) (*DB, error) {
	db := &DB{
		bucket:  bucket,
		stores:  map[string]s3api.Metered{},
		catalog: map[string]string{},
		Cfg:     cloudsim.DefaultConfig(),
		Pricing: cloudsim.DefaultPricing(),
		Sim:     cloudsim.Unit(),
	}
	for _, o := range opts {
		if err := o(db); err != nil {
			return nil, err
		}
	}
	if len(db.stores) == 0 {
		return nil, fmt.Errorf("engine: Open needs at least one WithBackend")
	}
	if _, ok := db.stores[db.defaultName]; !ok {
		return nil, fmt.Errorf("engine: default backend %q is not registered", db.defaultName)
	}
	for table, name := range db.catalog {
		if _, ok := db.stores[name]; !ok {
			return nil, fmt.Errorf("engine: table %q is mapped to unregistered backend %q", table, name)
		}
	}
	for name, s := range db.stores {
		if db.scanShare != nil {
			s = s.Over(db.scanShare.Over)
		}
		if db.resultCache != nil {
			// Above sharing: hits never reach the coordinator, misses
			// share one refill.
			s = s.Over(db.resultCache.Over)
		}
		db.stores[name] = s
	}
	return db, nil
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

// store resolves the handle on the backend a table's objects live on: the
// catalog entry if present, the default backend otherwise. Index
// pseudo-tables resolve through their data table.
func (db *DB) store(table string) s3api.Metered {
	if name, ok := db.catalog[baseTable(table)]; ok {
		return db.stores[name]
	}
	return db.stores[db.defaultName]
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
func (db *DB) InvalidateStats() { db.void("", "") }

// InvalidateTable drops the cached planner statistics, cached select
// results and the in-memory index-manifest view of one table only (same
// contract as InvalidateStats, scoped to the table whose objects changed).
// The name is case-sensitive, exactly as queries reference it: partition
// objects live under "<table>/part..." and the caches key by that same
// spelling; index artifacts under "<table>/_index/..." are covered too, so
// a reloaded table cannot serve byte ranges through a pre-reload index —
// the manifest is re-read and entries whose recorded data-partition sizes
// no longer match are dropped until CREATE INDEX rebuilds them.
func (db *DB) InvalidateTable(table string) { db.void(table, table+"/") }

// void is the one place that knows what the DB caches across queries. It
// drops the planner's cached estimates and the table's metadata entry —
// its statistics object and index-manifest view — (every table's when
// table is empty), cached select responses for the bucket's
// objects under objPrefix, and the scan-sharing space. The share epoch is
// coordinator-wide (cheap and always correct) and moves first: once the
// cache generations bump, a miss can only join a pass that started after
// the epoch did, so no pre-invalidation response is filled or served at a
// post-invalidation generation.
func (db *DB) void(table, objPrefix string) {
	db.statsMu.Lock()
	for k := range db.statsCache {
		// Stats keys are backend\x00bucket\x00table\x00filter[\x00...];
		// index pseudo-tables ("table/_index/col") invalidate with their
		// data table.
		parts := strings.SplitN(k, "\x00", 4)
		if table == "" || (len(parts) == 4 && baseTable(parts[2]) == table) {
			delete(db.statsCache, k)
		}
	}
	if table == "" {
		db.meta = nil
	} else {
		delete(db.meta, table)
	}
	db.metaGen++
	db.statsMu.Unlock()
	if db.scanShare != nil {
		db.scanShare.Invalidate()
	}
	if db.resultCache != nil {
		db.resultCache.InvalidatePrefix(db.bucket, objPrefix)
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
