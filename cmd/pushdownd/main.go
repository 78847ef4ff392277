// Command pushdownd serves PushdownDB over HTTP: one long-lived engine —
// with its planner statistics, secondary-index memos and select-result
// cache — shared by every client, behind admission control, per-tenant
// concurrency lanes and simulated-dollar quotas.
//
//	pushdownd -demo                          # tiny TPC-H dataset, in-proc S3
//	pushdownd -table orders=./orders.csv     # your own CSVs
//	pushdownd -backend localfs -fsroot /data -bucket local
//
// Endpoints:
//
//	POST /query    {"sql": "...", "tenant": "alice"} → rows + virtual
//	               runtime + simulated dollar cost, or a structured error
//	               ({"error":{"kind":"over_quota",...}})
//	GET  /stats    shared result-cache stats and per-tenant cost totals
//	GET  /healthz  liveness (reports "draining" during shutdown)
//	GET  /metrics  Prometheus text exposition (disable with -metrics=false)
//	GET  /debug/trace/<request-id>  a completed query's span tree as JSON
//	               (?format=chrome for chrome://tracing); bare path lists
//	               the retained ids
//	GET  /debug/pprof/  net/http/pprof, only with -pprof
//
// SIGINT/SIGTERM starts a graceful drain: new queries are refused with
// kind "shutting_down" while in-flight queries run to completion.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"pushdowndb/internal/engine"
	"pushdowndb/internal/localfs"
	"pushdowndb/internal/s3api"
	"pushdowndb/internal/scanshare"
	"pushdowndb/internal/server"
	"pushdowndb/internal/store"
	"pushdowndb/internal/tpch"
)

type tableFlags []string

func (t *tableFlags) String() string     { return strings.Join(*t, ",") }
func (t *tableFlags) Set(v string) error { *t = append(*t, v); return nil }

func main() {
	var (
		tables      tableFlags
		addr        = flag.String("addr", "127.0.0.1:8123", "listen address")
		demo        = flag.Bool("demo", false, "load a small TPC-H dataset (in-proc simulated S3) instead of -table files")
		demoSF      = flag.Float64("demo-sf", 0.01, "TPC-H scale factor for -demo")
		backend     = flag.String("backend", "inproc", "storage backend: inproc (simulated in-region S3) or localfs")
		fsroot      = flag.String("fsroot", "", "localfs root directory; may already hold objects from a previous run")
		bucket      = flag.String("bucket", "local", "bucket queries read from")
		parts       = flag.Int("parts", 4, "partitions per loaded table")
		cacheMB     = flag.Int("cache-mb", 64, "shared select-result cache budget in MiB (0 = off)")
		shareWindow = flag.Duration("share-window", 2*time.Millisecond, "scan-sharing batch window: concurrent compatible scans on one object merge into one S3 Select (0 = sharing off, negative = coalesce identical requests only)")
		shareBatch  = flag.Int("share-batch", 16, "max queries merged into one shared scan pass")
		maxClients  = flag.Int("max-clients", 32, "queries executing concurrently before arrivals queue")
		queueDepth  = flag.Int("queue", 0, "bounded admission queue depth (0 = 4x max-clients); overflow is refused with kind \"overloaded\"")
		timeout     = flag.Duration("timeout", 30*time.Second, "per-request wall-clock budget; overruns cancel the engine mid-flight")
		tenantLanes = flag.Int("tenant-lanes", 0, "max concurrent queries per tenant (0 = unlimited)")
		tenantUSD   = flag.Float64("tenant-budget", 0, "simulated-dollar budget per tenant (0 = unmetered); overruns are refused with kind \"over_quota\"")
		tenantRate  = flag.Int("tenant-rate", 0, "max queries per tenant per rate window (0 = unlimited); overruns are refused with kind \"rate_limited\"")
		tenantRateW = flag.Duration("tenant-rate-window", time.Second, "rolling window -tenant-rate counts over")
		auditPath   = flag.String("audit", "", "append a JSON line per query/rejection here (\"-\" = stderr)")
		metricsOn   = flag.Bool("metrics", true, "serve Prometheus metrics at GET /metrics")
		pprofOn     = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		slowQuery   = flag.Duration("slow-query", 0, "log the full span tree of queries over this wall-clock threshold to the audit stream (0 = off)")
		traceRetain = flag.Int("trace-retain", 64, "completed query traces kept for GET /debug/trace/<id> (negative = tracing off)")
	)
	flag.Var(&tables, "table", "name=path.csv (repeatable)")
	flag.Parse()

	ctx := context.Background()
	st := store.New() // the inproc backend's objects; -demo loads into it
	var be *s3api.Local
	switch *backend {
	case "inproc":
		be = s3api.NewInProc(st)
	case "localfs":
		root := *fsroot
		if root == "" {
			dir, err := os.MkdirTemp("", "pushdownd-localfs-")
			if err != nil {
				fatal(err)
			}
			defer os.RemoveAll(dir)
			root = dir
		}
		be = localfs.New(root)
		fmt.Fprintf(os.Stderr, "pushdownd: localfs backend rooted at %s\n", root)
	default:
		fatal(fmt.Errorf("unknown -backend %q (want inproc or localfs)", *backend))
	}

	if *demo {
		if *backend != "inproc" {
			fatal(fmt.Errorf("-demo needs the inproc backend"))
		}
		*bucket = "tpch"
		if _, err := tpch.LoadWithIndexes(ctx, st, tpch.Dataset{
			SF: *demoSF, Seed: 42, Bucket: *bucket, Partitions: *parts,
		}); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "pushdownd: demo TPC-H dataset loaded at SF %g\n", *demoSF)
	}
	for _, spec := range tables {
		name, path, ok := strings.Cut(spec, "=")
		if !ok {
			fatal(fmt.Errorf("bad -table %q, want name=path", spec))
		}
		rows, err := engine.LoadCSVFile(ctx, be, *bucket, name, path, *parts)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "pushdownd: loaded %s: %d rows, %d partitions\n", name, rows, *parts)
	}

	opts := []engine.Option{engine.WithBackend(*backend, be)}
	if *cacheMB > 0 {
		opts = append(opts, engine.WithResultCache(int64(*cacheMB)<<20))
	}
	if *shareWindow != 0 {
		opts = append(opts, engine.WithScanSharing(scanshare.Config{
			Window: *shareWindow, MaxBatch: *shareBatch,
		}))
	}
	db, err := engine.Open(*bucket, opts...)
	if err != nil {
		fatal(err)
	}

	var audit io.Writer
	switch *auditPath {
	case "":
	case "-":
		audit = os.Stderr
	default:
		f, err := os.OpenFile(*auditPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		audit = f
	}

	srv := server.New(db, server.Config{
		MaxClients:        *maxClients,
		QueueDepth:        *queueDepth,
		RequestTimeout:    *timeout,
		TenantConcurrency: *tenantLanes,
		TenantBudgetUSD:   *tenantUSD,
		TenantRateLimit:   *tenantRate,
		TenantRateWindow:  *tenantRateW,
		AuditLog:          audit,
		TraceRetain:       *traceRetain,
		SlowQuery:         *slowQuery,
		EnablePprof:       *pprofOn,
		DisableMetrics:    !*metricsOn,
	})

	sigCtx, stop := signal.NotifyContext(ctx, syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe(*addr) }()
	fmt.Fprintf(os.Stderr, "pushdownd: serving bucket %q on http://%s\n", *bucket, *addr)

	select {
	case err := <-errc:
		fatal(err)
	case <-sigCtx.Done():
		fmt.Fprintln(os.Stderr, "pushdownd: draining...")
		shCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(shCtx); err != nil {
			fatal(fmt.Errorf("shutdown: %w", err))
		}
		fmt.Fprintln(os.Stderr, "pushdownd: drained, bye")
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pushdownd:", err)
	os.Exit(1)
}
