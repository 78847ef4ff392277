package server

import (
	"cmp"
	"encoding/json"
	"net/http"
	"net/http/pprof"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"pushdowndb/internal/engine"
	"pushdowndb/internal/obs"
	"pushdowndb/internal/sqlparse"
)

// The daemon's observability surface: a hand-rolled Prometheus registry
// scraped at GET /metrics, a last-N ring of completed query traces served
// from GET /debug/trace/<request-id> (JSON or Chrome tracing format), and
// the slow-query log feeding full span trees to the audit stream.

// RequestIDHeader is the response header carrying the request id on every
// POST /query reply, including rejections.
const RequestIDHeader = "X-Pushdowndb-Request-Id"

// serverObs bundles the server's metrics and trace retention. Constructed
// unconditionally: recording into an unscraped registry is cheap, and the
// trace ring is capped.
type serverObs struct {
	reg    *obs.Registry
	traces *obs.TraceLog

	queries    *obs.Counter   // {tenant, kind, status}
	rejections *obs.Counter   // {kind}
	joinSteps  *obs.Counter   // {strategy}
	planStats  *obs.Counter   // {source}
	access     *obs.Counter   // {strategy, pushed}
	fallbacks  *obs.Counter   // {reason}
	qerrHist   *obs.Histogram // {strategy}
	slow       *obs.Counter
	respRows   *obs.Counter
	respBytes  *obs.Counter
	wallHist   *obs.Histogram // {status}
	simHist    *obs.Histogram
	phaseHist  *obs.Histogram // {phase}, names normalized by phaseKind
}

// qerrBuckets resolve a join step's q-error, max(est/actual, actual/est)
// with both floored at one row: 1 is a perfect estimate.
var qerrBuckets = []float64{1, 1.25, 1.5, 2, 3, 5, 10, 30, 100, 1000}

// wallBuckets resolve the in-process latencies (typically sub-ms to tens
// of ms) that DefBuckets, sized for virtual storage time, would flatten.
var wallBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 10,
}

func newServerObs(s *Server) *serverObs {
	reg := obs.NewRegistry()
	o := &serverObs{
		reg:    reg,
		traces: obs.NewTraceLog(s.cfg.TraceRetain),
		queries: reg.Counter("pushdownd_queries_total",
			"Statements executed, by tenant, statement kind and outcome.",
			"tenant", "kind", "status"),
		rejections: reg.Counter("pushdownd_rejections_total",
			"Requests turned away by admission, quotas or execution failure, by error kind.",
			"kind"),
		joinSteps: reg.Counter("pushdownd_join_steps_total",
			"Join plan steps executed, by chosen strategy.",
			"strategy"),
		planStats: reg.Counter("pushdownd_plan_stats_total",
			"Table scans planned, by where their statistics came from: the table's statistics object (stats), a full-table probe (probe) or the stats cache (cached).",
			"source"),
		access: reg.Counter("pushdownd_access_total",
			"Single-table access decisions executed, by chosen strategy and by what was pushed beyond selection + projection (none, topk-threshold or s3-groupby).",
			"strategy", "pushed"),
		fallbacks: reg.Counter("pushdownd_pushdown_fallback_total",
			"Pushed tails whose check failed, so that the statement reran on the plain filtered path, by reason (groups_missed, groups_overlap or short_threshold).",
			"reason"),
		qerrHist: reg.Histogram("pushdownd_join_step_qerror",
			"Cardinality q-error of executed join steps, max(est/actual, actual/est), by chosen strategy.",
			qerrBuckets, "strategy"),
		slow: reg.Counter("pushdownd_slow_queries_total",
			"Queries over the slow-query wall-clock threshold."),
		respRows: reg.Counter("pushdownd_response_rows_total",
			"Rows returned in POST /query success bodies."),
		respBytes: reg.Counter("pushdownd_response_bytes_total",
			"Bytes of POST /query success bodies; over response_rows_total, the wire's bytes per row."),
		wallHist: reg.Histogram("pushdownd_query_wall_seconds",
			"Wall-clock query latency on the server, by outcome.",
			wallBuckets, "status"),
		simHist: reg.Histogram("pushdownd_query_sim_seconds",
			"Virtual (cloud-simulated) query runtime.",
			obs.DefBuckets),
		phaseHist: reg.Histogram("pushdownd_phase_sim_seconds",
			"Virtual runtime of execution phases, by normalized phase kind.",
			obs.DefBuckets, "phase"),
	}
	reg.GaugeFunc("pushdownd_in_flight",
		"Queries executing right now.",
		func() float64 { return float64(s.inFlight.Load()) })
	reg.GaugeFunc("pushdownd_queued",
		"Admitted requests waiting for an execution slot.",
		func() float64 { return float64(s.queued.Load()) })
	reg.GaugeFunc("pushdownd_max_clients",
		"Execution slot capacity (Config.MaxClients).",
		func() float64 { return float64(s.cfg.MaxClients) })
	reg.GaugeFunc("pushdownd_queue_capacity",
		"Wait queue capacity (Config.QueueDepth).",
		func() float64 { return float64(s.cfg.QueueDepth) })
	reg.GaugeFunc("pushdownd_uptime_seconds",
		"Seconds since the server started.",
		func() float64 { return time.Since(s.start).Seconds() })
	reg.GaugeFunc("pushdownd_cache_hit_rate",
		"Shared result cache hit rate in [0,1] (0 when the cache is off).",
		func() float64 {
			cs, ok := s.db.ResultCacheStats()
			if !ok {
				return 0
			}
			return cs.HitRate()
		})
	reg.GaugeFunc("pushdownd_scanshare_sharers_per_pass",
		"Average queries riding one shared scan pass (0 when sharing is off).",
		func() float64 {
			ss, ok := s.db.ScanShareStats()
			if !ok || ss.SharedPasses == 0 {
				return 0
			}
			return float64(ss.Sharers) / float64(ss.SharedPasses)
		})
	// The Go runtime, read at scrape time: alloc bytes over queries_total is
	// the production view of the benchmark's alloc_mb_per_query.
	for _, m := range [][3]string{
		{"pushdownd_go_alloc_bytes_total", "Bytes the Go heap has handed out since the process started.", "/gc/heap/allocs:bytes"},
		{"pushdownd_go_heap_live_bytes", "Heap bytes the last garbage collection found live.", "/gc/heap/live:bytes"},
		{"pushdownd_go_gc_cycles_total", "Completed garbage collection cycles.", "/gc/cycles/total:gc-cycles"},
		{"pushdownd_go_goroutines", "Live goroutines.", "/sched/goroutines:goroutines"},
	} {
		reg.GaugeFunc(m[0], m[1], func() float64 {
			sample := []metrics.Sample{{Name: m[2]}}
			metrics.Read(sample)
			if sample[0].Value.Kind() != metrics.KindUint64 {
				return 0 // a runtime without the metric
			}
			return float64(sample[0].Value.Uint64())
		})
	}
	reg.Gauge("pushdownd_tenant_in_flight",
		"Queries executing right now, by tenant.",
		[]string{"tenant"}, func() []obs.Sample {
			s.tenMu.Lock()
			defer s.tenMu.Unlock()
			out := make([]obs.Sample, 0, len(s.tenants))
			for name, ts := range s.tenants {
				out = append(out, obs.Sample{Labels: []string{name}, Value: float64(ts.inFlight.Load())})
			}
			sort.Slice(out, func(i, j int) bool { return out[i].Labels[0] < out[j].Labels[0] })
			return out
		})
	return o
}

// observeQuery records one executed statement: counters, latency
// histograms, the per-phase breakdown, trace retention and the slow-query
// log. Rejections never reach here — they are counted by countReject.
func (s *Server) observeQuery(tenant, kind, id, sql string, tr *obs.Trace, exec *engine.Exec, wall time.Duration, err error) {
	status := "ok"
	if err != nil {
		status = string(classifyExecError(err).Kind)
	}
	s.obs.queries.Inc(tenant, kind, status)
	s.obs.wallHist.Observe(wall.Seconds(), status)
	if exec != nil {
		s.obs.simHist.Observe(exec.RuntimeSeconds())
		for _, p := range exec.Metrics.Phases() {
			s.obs.phaseHist.Observe(p.Seconds(), phaseKind(p.Name))
		}
		// The plan counters count plans that ran: plain EXPLAIN only plans.
		if plan := exec.QueryPlan(); plan != nil && kind != "explain" {
			for _, sc := range plan.Scans {
				if sc.StatsSource != "" {
					s.obs.planStats.Inc(statsSource(sc.StatsSource, sc.CachedStats))
				}
				if ap := sc.Access; ap != nil {
					s.obs.access.Inc(ap.Strategy, cmp.Or(ap.Pushed, "none"))
					if ap.Fallback != "" {
						s.obs.fallbacks.Inc(ap.Fallback)
					}
				}
			}
			for _, st := range plan.Steps {
				s.obs.joinSteps.Inc(st.Strategy)
				if err == nil { // a failed query's steps have no actuals
					est, act := float64(max(st.EstRows, 1)), float64(max(st.ActualRows, 1))
					s.obs.qerrHist.Observe(max(est/act, act/est), st.Strategy)
				}
			}
		}
	}
	d := tr.Snapshot()
	if d == nil {
		return
	}
	d.Root.SortChildren()
	s.obs.traces.Add(d)
	if s.cfg.SlowQuery > 0 && wall >= s.cfg.SlowQuery {
		s.obs.slow.Inc()
		s.auditWrite(auditEntry{
			Tenant: tenant, ID: id, SQL: sql, Status: "slow",
			WallSec: wall.Seconds(), Trace: json.RawMessage(d.JSON()),
		})
	}
}

// statsSource labels a planned scan for plan_stats_total.
func statsSource(source string, cached bool) string {
	if cached {
		return "cached"
	}
	return source
}

// statementKind labels a parsed statement for the queries_total metric.
func statementKind(st sqlparse.Statement) string {
	switch t := st.(type) {
	case *sqlparse.Select:
		if len(t.Joins) > 0 {
			return "join"
		}
		return "select"
	case *sqlparse.Explain:
		if t.Analyze {
			return "explain_analyze"
		}
		return "explain"
	case *sqlparse.CreateIndex:
		return "create_index"
	case *sqlparse.DropIndex:
		return "drop_index"
	default:
		return "other"
	}
}

// phaseKinds maps cloudsim phase-name prefixes onto a bounded label set:
// phase names embed table names ("filtered scan lineitem"), which would
// explode metric cardinality. First match wins, so longer prefixes come
// first ("plan probe" before "probe", "index select" before "select").
var phaseKinds = []string{
	"plan header", "plan probe", "plan stats", "index select", "index fetch", "index lookup",
	"row fetch", "bloom build", "bloom probe", "filtered scan", "threshold scan",
	"tail scan", "s3 aggregate", "hash join", "header", "load", "sample", "probe", "scan",
	"select", "local",
}

func phaseKind(name string) string {
	for _, k := range phaseKinds {
		if strings.HasPrefix(name, k) {
			return k
		}
	}
	return "other"
}

// handleMetrics serves the registry in the Prometheus text exposition
// format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, &Error{Kind: KindBadRequest, Message: "GET only"})
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.obs.reg.WritePrometheus(w)
}

// handleTrace serves retained query traces: GET /debug/trace/ lists the
// retained request ids, GET /debug/trace/<id> returns that query's span
// tree as JSON, and ?format=chrome returns Chrome tracing events loadable
// in chrome://tracing or Perfetto.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, &Error{Kind: KindBadRequest, Message: "GET only"})
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/debug/trace/")
	if id == "" {
		writeJSON(w, http.StatusOK, s.obs.traces.IDs())
		return
	}
	d := s.obs.traces.Get(id)
	if d == nil {
		writeJSON(w, http.StatusNotFound, errorResponse{Err: Error{
			Kind: KindBadRequest, Message: "no retained trace for request id " + id}})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if r.URL.Query().Get("format") == "chrome" {
		_, _ = w.Write(d.ChromeTrace())
		return
	}
	_, _ = w.Write(d.JSON())
}

// mountPprof wires the net/http/pprof handlers onto the server's own mux
// (the package's init only touches http.DefaultServeMux, which pushdownd
// never serves).
func mountPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}
