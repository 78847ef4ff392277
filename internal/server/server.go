package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"pushdowndb/internal/cloudsim"
	"pushdowndb/internal/engine"
	"pushdowndb/internal/obs"
	"pushdowndb/internal/s3api"
	"pushdowndb/internal/sqlparse"
)

// Config tunes the server's admission and quota layer. The zero value gets
// sensible defaults from New.
type Config struct {
	// MaxClients bounds how many queries execute concurrently across all
	// tenants (default 32). Arrivals beyond it wait in the bounded queue.
	MaxClients int
	// QueueDepth bounds how many admitted-but-waiting requests may queue
	// behind the MaxClients executing ones (default 4*MaxClients). A full
	// queue rejects new arrivals with KindOverloaded instead of building
	// unbounded backlog.
	QueueDepth int
	// RequestTimeout is the per-query deadline, wired into QueryContext so
	// a stalled storage backend is cut mid-flight (default 30s; <0 disables).
	RequestTimeout time.Duration
	// TenantConcurrency bounds each tenant's concurrently executing
	// queries (0 = unlimited). A full lane rejects with KindOverloaded —
	// one tenant's burst cannot occupy the whole server.
	TenantConcurrency int
	// TenantBudgetUSD is each tenant's simulated-dollar budget (0 =
	// unlimited). Every query is metered by the cost model anyway; once a
	// tenant's accumulated total reaches the budget, further queries are
	// rejected with KindOverQuota.
	TenantBudgetUSD float64
	// TenantRateLimit bounds how many queries each tenant may submit per
	// rolling TenantRateWindow (0 = unlimited). Unlike the dollar quota,
	// which is cumulative and terminal, the rate limit is a smoothing
	// control: a burst past it is rejected with KindRateLimited and the
	// tenant is admitted again as soon as the window rolls past.
	TenantRateLimit int
	// TenantRateWindow is the rolling window TenantRateLimit counts over
	// (default 1s when a limit is set).
	TenantRateWindow time.Duration
	// DefaultTenant attributes requests that name no tenant (default
	// "default").
	DefaultTenant string
	// AuditLog, when non-nil, receives one JSON line per statement —
	// executed or rejected — with tenant, outcome, runtime and cost.
	// Executed statements flow through the engine's query hook, so direct
	// DB users on the same shared DB are audited too.
	AuditLog io.Writer
	// TraceRetain is how many completed query traces the server keeps for
	// GET /debug/trace/<request-id> (default 64; <0 disables tracing
	// entirely, including the slow-query log).
	TraceRetain int
	// SlowQuery, when >0, is the wall-clock threshold past which a query's
	// full span tree is written to the audit log (status "slow").
	SlowQuery time.Duration
	// EnablePprof mounts net/http/pprof under /debug/pprof/ (off by
	// default: profiling endpoints on a query port are opt-in).
	EnablePprof bool
	// DisableMetrics turns off GET /metrics (served by default).
	DisableMetrics bool
}

// withDefaults fills the zero fields.
func (c Config) withDefaults() Config {
	if c.MaxClients <= 0 {
		c.MaxClients = 32
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.MaxClients
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.DefaultTenant == "" {
		c.DefaultTenant = "default"
	}
	if c.TenantRateLimit > 0 && c.TenantRateWindow <= 0 {
		c.TenantRateWindow = time.Second
	}
	if c.TraceRetain == 0 {
		c.TraceRetain = 64
	}
	return c
}

// tenantState is one tenant's concurrency lane and rate window.
type tenantState struct {
	sem      chan struct{} // nil = unlimited
	inFlight atomic.Int64

	rateMu sync.Mutex
	// recent holds the admission times still inside the rolling rate
	// window, oldest first; bounded by TenantRateLimit.
	recent []time.Time
}

// allowRate records one arrival against the rolling window and reports
// whether it fits under limit. Expired entries are pruned first, so memory
// per tenant is bounded by the limit itself.
func (ts *tenantState) allowRate(now time.Time, limit int, window time.Duration) bool {
	ts.rateMu.Lock()
	defer ts.rateMu.Unlock()
	cutoff := now.Add(-window)
	i := 0
	for i < len(ts.recent) && !ts.recent[i].After(cutoff) {
		i++
	}
	if i > 0 {
		ts.recent = append(ts.recent[:0], ts.recent[i:]...)
	}
	if len(ts.recent) >= limit {
		return false
	}
	ts.recent = append(ts.recent, now)
	return true
}

// Server multiplexes concurrent clients over one shared engine.DB: every
// connection sees the same result cache, the same planner statistics and
// the same cost ledger. Construct with New, serve with Serve, stop with
// Shutdown (which drains in-flight queries).
type Server struct {
	db     *engine.DB
	cfg    Config
	ledger *cloudsim.Ledger
	start  time.Time

	slots    chan struct{} // MaxClients execution tokens
	queued   atomic.Int64
	inFlight atomic.Int64
	accepted atomic.Int64

	rejMu    sync.Mutex
	rejected map[ErrorKind]int64

	tenMu   sync.Mutex
	tenants map[string]*tenantState

	draining atomic.Bool
	wg       sync.WaitGroup // in-flight query executions

	auditMu sync.Mutex
	reqSeq  atomic.Int64

	obs *serverObs // metrics registry + retained traces

	httpMu  sync.Mutex
	httpSrv *http.Server
}

// New returns a Server over db. The server installs its audit hook on the
// DB (engine.SetQueryHook) when cfg.AuditLog is set; the DB must not have
// a competing hook installed.
func New(db *engine.DB, cfg Config) *Server {
	s := &Server{
		db:       db,
		cfg:      cfg.withDefaults(),
		ledger:   cloudsim.NewLedger(),
		start:    time.Now(),
		rejected: map[ErrorKind]int64{},
		tenants:  map[string]*tenantState{},
	}
	s.slots = make(chan struct{}, s.cfg.MaxClients)
	s.obs = newServerObs(s)
	if s.cfg.AuditLog != nil {
		db.SetQueryHook(s.auditQueryHook)
	}
	return s
}

// Handler returns the HTTP surface: POST /query, GET /stats, GET
// /healthz, GET /metrics (unless disabled), GET /debug/trace/<id>, and
// GET /debug/pprof/ when enabled.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/healthz", s.handleHealth)
	if !s.cfg.DisableMetrics {
		mux.HandleFunc("/metrics", s.handleMetrics)
	}
	mux.HandleFunc("/debug/trace/", s.handleTrace)
	if s.cfg.EnablePprof {
		mountPprof(mux)
	}
	return mux
}

// Serve accepts connections on l until Shutdown. It returns
// http.ErrServerClosed after a clean shutdown, any other error on accept
// failure.
func (s *Server) Serve(l net.Listener) error {
	srv := &http.Server{Handler: s.Handler()}
	s.httpMu.Lock()
	s.httpSrv = srv
	s.httpMu.Unlock()
	return srv.Serve(l)
}

// ListenAndServe listens on addr and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(l)
}

// Shutdown drains the server: new queries are rejected with
// KindShuttingDown immediately, the listener closes, and Shutdown returns
// once every in-flight query has finished (or ctx expires). In-flight
// queries are never canceled by Shutdown — they keep their own deadlines.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.httpMu.Lock()
	srv := s.httpSrv
	s.httpMu.Unlock()
	if srv != nil {
		if err := srv.Shutdown(ctx); err != nil {
			return err
		}
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// tenant returns (lazily creating) the tenant's state.
func (s *Server) tenant(name string) *tenantState {
	s.tenMu.Lock()
	defer s.tenMu.Unlock()
	ts := s.tenants[name]
	if ts == nil {
		ts = &tenantState{}
		if s.cfg.TenantConcurrency > 0 {
			ts.sem = make(chan struct{}, s.cfg.TenantConcurrency)
		}
		s.tenants[name] = ts
	}
	return ts
}

// countReject tallies an admission/quota rejection for /stats and
// /metrics.
func (s *Server) countReject(k ErrorKind) {
	s.rejMu.Lock()
	s.rejected[k]++
	s.rejMu.Unlock()
	s.obs.rejections.Inc(string(k))
}

// acquireSlot is global admission: take an execution token immediately,
// or wait in the bounded queue until one frees, the client gives up, or
// the per-request deadline passes.
func (s *Server) acquireSlot(ctx context.Context) *Error {
	select {
	case s.slots <- struct{}{}:
		return nil
	default:
	}
	if s.queued.Add(1) > int64(s.cfg.QueueDepth) {
		s.queued.Add(-1)
		return &Error{Kind: KindOverloaded, Message: fmt.Sprintf(
			"wait queue full (%d executing, %d queued)", s.cfg.MaxClients, s.cfg.QueueDepth)}
	}
	defer s.queued.Add(-1)
	select {
	case s.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			return &Error{Kind: KindTimeout, Message: "deadline passed while queued for admission"}
		}
		return &Error{Kind: KindCanceled, Message: "client gone while queued for admission"}
	}
}

func (s *Server) releaseSlot() { <-s.slots }

// handleQuery runs one SQL statement through the shared DB under
// admission control, tenant quotas and the per-request deadline.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, &Error{Kind: KindBadRequest, Message: "POST only"})
		return
	}
	var req queryRequest
	body := http.MaxBytesReader(w, r.Body, 1<<20)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeError(w, &Error{Kind: KindBadRequest, Message: "bad request body: " + err.Error()})
		return
	}
	tenant := req.Tenant
	if tenant == "" {
		tenant = s.cfg.DefaultTenant
	}
	// The request id correlates the response, the audit line, the metrics
	// and the retained trace; it rides a response header so even rejected
	// requests can be chased through the logs.
	id := req.RequestID
	if id == "" {
		id = fmt.Sprintf("q-%d", s.reqSeq.Add(1))
	}
	w.Header().Set(RequestIDHeader, id)
	reject := func(e *Error) {
		s.countReject(e.Kind)
		s.auditRejected(tenant, id, req.SQL, e)
		writeError(w, e)
	}
	if req.SQL == "" {
		reject(&Error{Kind: KindBadRequest, Message: "empty sql"})
		return
	}
	// Parse the statement before spending an admission slot on it; the engine
	// runs this parse (RunStatement), so a statement is parsed once.
	stmt, err := sqlparse.ParseStatement(req.SQL)
	if err != nil {
		reject(&Error{Kind: KindBadRequest, Message: err.Error()})
		return
	}
	kind := statementKind(stmt)
	if s.draining.Load() {
		reject(&Error{Kind: KindShuttingDown, Message: "server is draining"})
		return
	}
	// Quota gate: a tenant that has spent its budget is turned away before
	// it can occupy a slot.
	if s.cfg.TenantBudgetUSD > 0 {
		if spent := s.ledger.Usage(tenant).Cost.Total(); spent >= s.cfg.TenantBudgetUSD {
			reject(&Error{Kind: KindOverQuota, Message: fmt.Sprintf(
				"tenant %q spent $%.6f of its $%.6f budget", tenant, spent, s.cfg.TenantBudgetUSD)})
			return
		}
	}
	ts := s.tenant(tenant)
	// Rate gate: like the quota gate, applied before the request can
	// occupy a slot or a queue position.
	if s.cfg.TenantRateLimit > 0 {
		if !ts.allowRate(time.Now(), s.cfg.TenantRateLimit, s.cfg.TenantRateWindow) {
			reject(&Error{Kind: KindRateLimited, Message: fmt.Sprintf(
				"tenant %q over its rate limit (%d per %s)",
				tenant, s.cfg.TenantRateLimit, s.cfg.TenantRateWindow)})
			return
		}
	}
	if e := s.acquireSlot(r.Context()); e != nil {
		reject(e)
		return
	}
	defer s.releaseSlot()
	if ts.sem != nil {
		select {
		case ts.sem <- struct{}{}:
			defer func() { <-ts.sem }()
		default:
			reject(&Error{Kind: KindOverloaded, Message: fmt.Sprintf(
				"tenant %q at its concurrency limit (%d)", tenant, s.cfg.TenantConcurrency)})
			return
		}
	}

	s.wg.Add(1)
	defer s.wg.Done()
	s.inFlight.Add(1)
	defer s.inFlight.Add(-1)
	ts.inFlight.Add(1)
	defer ts.inFlight.Add(-1)
	s.accepted.Add(1)

	ctx := withRequestInfo(r.Context(), tenant, id)
	if s.cfg.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
		defer cancel()
	}
	var tr *obs.Trace
	if s.cfg.TraceRetain > 0 {
		tr = obs.New(id, "query")
		ctx = obs.WithTrace(ctx, tr)
	}
	wallStart := time.Now()
	rel, exec, err := s.db.RunStatement(ctx, req.SQL, stmt)
	wall := time.Since(wallStart)
	tr.Finish()
	// Bill whatever the execution accrued, error or not: a query that died
	// halfway through a scan still bought that scan.
	var runtime float64
	var cost cloudsim.CostBreakdown
	if exec != nil {
		runtime = exec.RuntimeSeconds()
		cost = exec.Cost()
		s.ledger.Bill(tenant, runtime, cost, err != nil)
	}
	s.observeQuery(tenant, kind, id, req.SQL, tr, exec, wall, err)
	if err != nil {
		e := classifyExecError(err)
		s.countReject(e.Kind)
		writeError(w, e)
		return
	}
	if rel == nil {
		rel = &engine.Relation{}
	}
	resp := queryResponse{
		Columns:    append([]string{}, rel.Cols...), // [] on the wire, never null
		Rows:       rel.Rows,
		RuntimeSec: runtime,
		Cost:       cost,
		Tenant:     tenant,
		RequestID:  id,
	}
	if exec != nil {
		requests, _, _, _ := exec.Metrics.Totals()
		hits, _ := exec.Metrics.CacheTotals()
		resp.Requests = requests
		resp.CacheHits = hits
	}
	cw := &countingWriter{ResponseWriter: w}
	writeJSON(cw, http.StatusOK, resp)
	s.obs.respRows.Add(float64(len(resp.Rows)))
	s.obs.respBytes.Add(float64(cw.n))
}

// countingWriter counts the body bytes of a success response.
type countingWriter struct {
	http.ResponseWriter
	n int
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += n
	return n, err
}

// classifyExecError maps an engine/storage failure onto the wire error
// kinds: deadline cuts are timeouts, client disconnects are canceled,
// storage-level "you asked for something that isn't there / isn't valid"
// kinds are bad requests, the rest is internal.
func classifyExecError(err error) *Error {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return &Error{Kind: KindTimeout, Message: "query exceeded the per-request deadline"}
	case errors.Is(err, context.Canceled):
		return &Error{Kind: KindCanceled, Message: "query canceled"}
	}
	switch s3api.KindOf(err) {
	case s3api.KindNotFound, s3api.KindBadRequest, s3api.KindInvalidRange, s3api.KindUnsupported:
		return &Error{Kind: KindBadRequest, Message: err.Error()}
	}
	return &Error{Kind: KindInternal, Message: err.Error()}
}

// handleStats renders the shared-state snapshot.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, &Error{Kind: KindBadRequest, Message: "GET only"})
		return
	}
	st := Stats{
		UptimeSec:     time.Since(s.start).Seconds(),
		InFlight:      s.inFlight.Load(),
		Queued:        s.queued.Load(),
		MaxClients:    int64(s.cfg.MaxClients),
		QueueCapacity: int64(s.cfg.QueueDepth),
		Accepted:      s.accepted.Load(),
		Rejected:      map[ErrorKind]int64{},
		Tenants:       map[string]TenantStats{},
		Draining:      s.draining.Load(),
	}
	s.rejMu.Lock()
	for k, n := range s.rejected {
		st.Rejected[k] = n
	}
	s.rejMu.Unlock()
	for name, u := range s.ledger.Snapshot() {
		ten := TenantStats{
			Queries:    u.Queries,
			Errors:     u.Errors,
			RuntimeSec: u.RuntimeSec,
			Cost:       u.Cost,
			TotalUSD:   u.Cost.Total(),
			BudgetUSD:  s.cfg.TenantBudgetUSD,
		}
		s.tenMu.Lock()
		if ts := s.tenants[name]; ts != nil {
			ten.InFlight = ts.inFlight.Load()
		}
		s.tenMu.Unlock()
		st.Tenants[name] = ten
	}
	if cs, ok := s.db.ResultCacheStats(); ok {
		st.Cache = &CacheStats{Stats: cs, HitRate: cs.HitRate()}
	}
	if ss, ok := s.db.ScanShareStats(); ok {
		sh := &ShareStats{Stats: ss}
		if ss.SharedPasses > 0 {
			sh.AvgSharersPerPass = float64(ss.Sharers) / float64(ss.SharedPasses)
		}
		st.ScanShare = sh
	}
	writeJSON(w, http.StatusOK, st)
}

// handleHealth is the liveness probe.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	code := http.StatusOK
	if s.draining.Load() {
		status = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, healthResponse{Status: status, InFlight: s.inFlight.Load()})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, e *Error) {
	writeJSON(w, httpStatus(e.Kind), errorResponse{Err: *e})
}

// requestInfoKey carries the tenant and request id into the engine's
// query hook through the execution context.
type requestInfoKey struct{}

type requestInfo struct {
	tenant string
	id     string
}

func withRequestInfo(ctx context.Context, tenant, id string) context.Context {
	return context.WithValue(ctx, requestInfoKey{}, requestInfo{tenant: tenant, id: id})
}

// auditEntry is one JSON line in the audit log.
type auditEntry struct {
	TS         string  `json:"ts"`
	Tenant     string  `json:"tenant"`
	ID         string  `json:"id,omitempty"`
	SQL        string  `json:"sql"`
	Status     string  `json:"status"` // "ok", "slow" or an ErrorKind
	RuntimeSec float64 `json:"runtime_sec,omitempty"`
	CostUSD    float64 `json:"cost_usd,omitempty"`
	WallSec    float64 `json:"wall_sec,omitempty"`
	Err        string  `json:"err,omitempty"`
	// Trace is the query's full span tree; written only by the slow-query
	// log (status "slow").
	Trace json.RawMessage `json:"trace,omitempty"`
}

func (s *Server) auditWrite(e auditEntry) {
	if s.cfg.AuditLog == nil {
		return
	}
	e.TS = time.Now().UTC().Format(time.RFC3339Nano)
	line, err := json.Marshal(e)
	if err != nil {
		return
	}
	s.auditMu.Lock()
	_, _ = s.cfg.AuditLog.Write(append(line, '\n'))
	s.auditMu.Unlock()
}

// auditQueryHook is the engine.QueryHook the server installs: every
// statement the shared DB executes — through this server or by a direct
// in-process caller — lands in the audit log with its tenant attribution
// when it came through the server ("direct" otherwise).
func (s *Server) auditQueryHook(ctx context.Context, sql string, exec *engine.Exec, err error) {
	e := auditEntry{Tenant: "direct", SQL: sql, Status: "ok"}
	if info, ok := ctx.Value(requestInfoKey{}).(requestInfo); ok {
		e.Tenant = info.tenant
		e.ID = info.id
	}
	if exec != nil {
		e.RuntimeSec = exec.RuntimeSeconds()
		e.CostUSD = exec.Cost().Total()
	}
	if err != nil {
		e.Status = string(classifyExecError(err).Kind)
		e.Err = err.Error()
	}
	s.auditWrite(e)
}

// auditRejected logs a statement the admission/quota layer turned away
// before execution.
func (s *Server) auditRejected(tenant, id, sql string, rej *Error) {
	s.auditWrite(auditEntry{
		Tenant: tenant, ID: id, SQL: sql,
		Status: string(rej.Kind), Err: rej.Message,
	})
}
