package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"pushdowndb/internal/engine"
	"pushdowndb/internal/obs"
)

// The daemon observability surface: /metrics scrapes parse as Prometheus
// text exposition, /debug/trace serves a completed request's span tree in
// both JSON and Chrome tracing form, request ids round-trip (or are
// generated) on every reply, and the slow-query log lands full span trees
// in the audit stream.

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// postQuery posts one statement raw and returns the reply's body, whatever
// its status.
func postQuery(t *testing.T, base, sql string) []byte {
	t.Helper()
	req, _ := json.Marshal(queryRequest{SQL: sql})
	resp, err := http.Post(base+"/query", "application/json", bytes.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// parsePromText is a strict parser for the subset of the Prometheus text
// format the server emits: every non-comment line must be
// `name{labels} value` or `name value` with a float value, and every
// series must be preceded by its # HELP and # TYPE headers.
func parsePromText(t *testing.T, text string) map[string]float64 {
	t.Helper()
	series := map[string]float64{}
	typed := map[string]bool{}
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# ") {
			parts := strings.Fields(line)
			if len(parts) < 4 || (parts[1] != "HELP" && parts[1] != "TYPE") {
				t.Fatalf("bad comment line %q", line)
			}
			if parts[1] == "TYPE" {
				typed[parts[2]] = true
			}
			continue
		}
		// name{l="v",...} value  |  name value
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("bad sample line %q", line)
		}
		key, valStr := line[:sp], line[sp+1:]
		if _, err := strconv.ParseFloat(valStr, 64); err != nil && valStr != "+Inf" && valStr != "NaN" {
			t.Fatalf("bad sample value in %q: %v", line, err)
		}
		v, _ := strconv.ParseFloat(valStr, 64)
		name := key
		if i := strings.IndexByte(key, '{'); i >= 0 {
			if !strings.HasSuffix(key, "}") {
				t.Fatalf("unbalanced labels in %q", line)
			}
			name = key[:i]
		}
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		if !typed[name] && !typed[base] {
			t.Fatalf("series %q has no # TYPE header", name)
		}
		if _, dup := series[key]; dup {
			t.Fatalf("duplicate series %q", key)
		}
		series[key] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return series
}

func TestMetricsEndpoint(t *testing.T) {
	f := newFixture(t, "inproc", Config{})
	c := NewClient(f.base)
	for _, q := range testQueries {
		if _, err := c.Query(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}
	// One guaranteed rejection for the rejections counter.
	if _, err := c.Query(context.Background(), "SELECT FROM nothing"); err == nil {
		t.Fatal("want parse rejection")
	}

	resp, body := get(t, f.base+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	series := parsePromText(t, string(body))

	if got := series[`pushdownd_queries_total{tenant="default",kind="select",status="ok"}`]; got < 1 {
		t.Errorf("select queries_total = %v, want >= 1\n%s", got, body)
	}
	if got := series[`pushdownd_queries_total{tenant="default",kind="join",status="ok"}`]; got != 1 {
		t.Errorf("join queries_total = %v, want 1", got)
	}
	if got := series[`pushdownd_rejections_total{kind="bad_request"}`]; got != 1 {
		t.Errorf("rejections_total = %v, want 1", got)
	}
	if got := series["pushdownd_max_clients"]; got != 32 {
		t.Errorf("max_clients gauge = %v, want 32 (the default)", got)
	}
	if got := series["pushdownd_queue_capacity"]; got != 128 {
		t.Errorf("queue_capacity gauge = %v, want 128", got)
	}
	if got := series[`pushdownd_query_wall_seconds_count{status="ok"}`]; got != float64(len(testQueries)) {
		t.Errorf("wall histogram count = %v, want %d", got, len(testQueries))
	}
	if got := series["pushdownd_query_sim_seconds_count"]; got != float64(len(testQueries)) {
		t.Errorf("sim histogram count = %v, want %d", got, len(testQueries))
	}
	if got := series[`pushdownd_join_steps_total{strategy="baseline"}`] +
		series[`pushdownd_join_steps_total{strategy="bloom"}`] +
		series[`pushdownd_join_steps_total{strategy="filtered"}`]; got != 1 {
		t.Errorf("join_steps_total sum = %v, want 1", got)
	}
	// Per-phase histogram uses normalized kinds, never raw table names.
	sawPhase := false
	for key := range series {
		if !strings.HasPrefix(key, "pushdownd_phase_sim_seconds_count") {
			continue
		}
		sawPhase = true
		if strings.Contains(key, "orders") || strings.Contains(key, "customers") {
			t.Errorf("phase label leaked a table name: %s", key)
		}
	}
	if !sawPhase {
		t.Error("no per-phase histogram series")
	}
	// Scrapes are deterministic given no traffic in between.
	_, body2 := get(t, f.base+"/metrics")
	// Uptime and the Go runtime's figures move between scrapes; drop them
	// before comparing.
	strip := func(b []byte) string {
		var keep []string
		for _, l := range strings.Split(string(b), "\n") {
			if !strings.Contains(l, "pushdownd_uptime_seconds") && !strings.Contains(l, "pushdownd_go_") {
				keep = append(keep, l)
			}
		}
		return strings.Join(keep, "\n")
	}
	if strip(body) != strip(body2) {
		t.Error("idle scrapes differ")
	}
}

// TestResponseSizeMetrics: one statement moves response_rows_total by its
// rows and response_bytes_total by its body, so bytes per row reads off a
// running daemon; a rejection moves neither.
func TestResponseSizeMetrics(t *testing.T) {
	f := newFixture(t, "inproc", Config{})
	scrape := func() (rows, bytes float64) {
		_, body := get(t, f.base+"/metrics")
		series := parsePromText(t, string(body))
		return series["pushdownd_response_rows_total"], series["pushdownd_response_bytes_total"]
	}
	rows0, bytes0 := scrape()
	body := postQuery(t, f.base, "SELECT o_id, o_price FROM orders WHERE o_id <= 25")
	postQuery(t, f.base, "SELECT FROM nothing")
	rows1, bytes1 := scrape()
	if rows1-rows0 != 25 || bytes1-bytes0 != float64(len(body)) {
		t.Errorf("25 rows in %d bytes moved the counters by %v rows and %v bytes", len(body), rows1-rows0, bytes1-bytes0)
	}
}

// TestGoRuntimeMetrics: /metrics reads the Go runtime at scrape time —
// heap handed out (a counter, so alloc bytes over queries_total is the
// allocation per query on a running daemon), live heap, GC cycles,
// goroutines — and a query moves the running totals, never backwards.
func TestGoRuntimeMetrics(t *testing.T) {
	f := newFixture(t, "inproc", Config{})
	scrape := func() (map[string]float64, string) {
		_, body := get(t, f.base+"/metrics")
		return parsePromText(t, string(body)), string(body)
	}
	runtime.GC() // live heap is what the last collection found
	before, text := scrape()
	for name, typ := range map[string]string{
		"pushdownd_go_alloc_bytes_total": "counter", "pushdownd_go_gc_cycles_total": "counter",
		"pushdownd_go_heap_live_bytes": "gauge", "pushdownd_go_goroutines": "gauge",
	} {
		if !strings.Contains(text, "# TYPE "+name+" "+typ+"\n") {
			t.Errorf("%s is not exposed as a %s", name, typ)
		}
		if before[name] <= 0 {
			t.Errorf("%s = %v, want a positive reading", name, before[name])
		}
	}
	body := postQuery(t, f.base, "SELECT o_id, o_price FROM orders WHERE o_id <= 25")
	runtime.GC()
	after, _ := scrape()
	if grew := after["pushdownd_go_alloc_bytes_total"] - before["pushdownd_go_alloc_bytes_total"]; grew < float64(len(body)) {
		t.Errorf("alloc_bytes_total grew by %v over a query whose body alone is %d bytes", grew, len(body))
	}
	if after["pushdownd_go_gc_cycles_total"] <= before["pushdownd_go_gc_cycles_total"] {
		t.Errorf("gc_cycles_total %v -> %v across a forced collection", before["pushdownd_go_gc_cycles_total"], after["pushdownd_go_gc_cycles_total"])
	}
}

func TestRequestIDHeaderAndTrace(t *testing.T) {
	f := newFixture(t, "inproc", Config{})
	c := NewClient(f.base)

	// Server-generated id: present in the response body and header.
	res, err := c.Query(context.Background(), testQueries[0])
	if err != nil {
		t.Fatal(err)
	}
	if res.RequestID == "" {
		t.Fatal("no generated request id")
	}

	// Client-chosen id round-trips.
	res2, err := c.QueryID(context.Background(), testQueries[3], "my-join-7")
	if err != nil {
		t.Fatal(err)
	}
	if res2.RequestID != "my-join-7" {
		t.Fatalf("request id = %q, want my-join-7", res2.RequestID)
	}

	// The header rides even on rejections.
	resp, err := http.Post(f.base+"/query", "application/json",
		strings.NewReader(`{"sql":"","request_id":"rej-1"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get(RequestIDHeader); got != "rej-1" {
		t.Errorf("rejection header id = %q, want rej-1", got)
	}

	// The retained trace is fetchable by id and shaped like the query.
	d, err := c.Trace(context.Background(), "my-join-7")
	if err != nil {
		t.Fatal(err)
	}
	if d.ID != "my-join-7" || d.Root == nil || d.Root.Name != "query" {
		t.Fatalf("trace = %+v", d)
	}
	if d.Find("select") == nil {
		t.Error("trace has no statement span")
	}
	if d.Find("join 1") == nil {
		t.Error("trace of a join has no join span")
	}
	sel := d.Root.Children[0]
	if rows, ok := sel.Int("rows"); !ok || rows != int64(len(res2.Relation.Rows)) {
		t.Errorf("trace rows attr = %d (ok=%v), want %d", rows, ok, len(res2.Relation.Rows))
	}

	// Unknown ids 404; the trace index lists retained ids oldest-first.
	resp404, _ := get(t, f.base+"/debug/trace/nope")
	if resp404.StatusCode != http.StatusNotFound {
		t.Errorf("unknown trace = %d, want 404", resp404.StatusCode)
	}
	_, idsBody := get(t, f.base+"/debug/trace/")
	var ids []string
	if err := json.Unmarshal(idsBody, &ids); err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || ids[1] != "my-join-7" {
		t.Errorf("trace index = %v", ids)
	}

	// Chrome tracing format: a JSON array of complete ("X") events.
	_, chromeBody := get(t, f.base+"/debug/trace/my-join-7?format=chrome")
	var events []map[string]any
	if err := json.Unmarshal(chromeBody, &events); err != nil {
		t.Fatalf("chrome trace: %v", err)
	}
	if len(events) < 3 {
		t.Fatalf("chrome trace has %d events", len(events))
	}
	for _, ev := range events {
		if ev["ph"] != "X" || ev["name"] == "" {
			t.Fatalf("bad chrome event %v", ev)
		}
	}
}

func TestSlowQueryLog(t *testing.T) {
	// Threshold of one nanosecond: everything is slow.
	f := newFixture(t, "inproc", Config{SlowQuery: time.Nanosecond})
	c := NewClient(f.base)
	if _, err := c.QueryID(context.Background(), testQueries[1], "slow-1"); err != nil {
		t.Fatal(err)
	}
	var found bool
	sc := bufio.NewScanner(strings.NewReader(f.audit.String()))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var e auditEntry
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad audit line %q: %v", sc.Text(), err)
		}
		if e.Status != "slow" {
			continue
		}
		found = true
		if e.ID != "slow-1" || e.WallSec <= 0 {
			t.Errorf("slow entry = %+v", e)
		}
		var d struct {
			ID   string `json:"id"`
			Root *struct {
				Name string `json:"name"`
			} `json:"root"`
		}
		if err := json.Unmarshal(e.Trace, &d); err != nil {
			t.Fatalf("slow entry trace does not parse: %v", err)
		}
		if d.ID != "slow-1" || d.Root == nil || d.Root.Name != "query" {
			t.Errorf("slow entry trace = %+v", d)
		}
	}
	if !found {
		t.Fatalf("no slow entry in audit log:\n%s", f.audit.String())
	}
}

func TestTraceRetentionEviction(t *testing.T) {
	f := newFixture(t, "inproc", Config{TraceRetain: 2})
	c := NewClient(f.base)
	for i := 0; i < 4; i++ {
		if _, err := c.QueryID(context.Background(), testQueries[0], fmt.Sprintf("r-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	_, idsBody := get(t, f.base+"/debug/trace/")
	var ids []string
	if err := json.Unmarshal(idsBody, &ids); err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || ids[0] != "r-2" || ids[1] != "r-3" {
		t.Errorf("retained ids = %v, want [r-2 r-3]", ids)
	}
}

func TestTracingDisabled(t *testing.T) {
	f := newFixture(t, "inproc", Config{TraceRetain: -1})
	c := NewClient(f.base)
	res, err := c.QueryID(context.Background(), testQueries[0], "off-1")
	if err != nil {
		t.Fatal(err)
	}
	if res.RequestID != "off-1" {
		t.Errorf("request id still rides: got %q", res.RequestID)
	}
	if _, err := c.Trace(context.Background(), "off-1"); err == nil {
		t.Error("trace retained despite TraceRetain < 0")
	}
}

func TestPprofGated(t *testing.T) {
	off := newFixture(t, "inproc", Config{})
	resp, _ := get(t, off.base+"/debug/pprof/cmdline")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof off: status = %d, want 404", resp.StatusCode)
	}
	on := newFixture(t, "inproc", Config{EnablePprof: true})
	resp, body := get(t, on.base+"/debug/pprof/cmdline")
	if resp.StatusCode != http.StatusOK || len(body) == 0 {
		t.Errorf("pprof on: status = %d, body %d bytes", resp.StatusCode, len(body))
	}
}

func TestStatsAdmissionCapacity(t *testing.T) {
	f := newFixture(t, "inproc", Config{MaxClients: 3, QueueDepth: 5})
	st, err := NewClient(f.base).Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.MaxClients != 3 || st.QueueCapacity != 5 {
		t.Errorf("capacity = %d/%d, want 3/5", st.MaxClients, st.QueueCapacity)
	}
}

// TestObsConcurrent hammers the whole observability surface from many
// goroutines — queries with client ids, /metrics scrapes and trace fetches
// racing each other. Run under -race in CI; assertions check that every
// retained trace is internally consistent (own id, one statement span).
func TestObsConcurrent(t *testing.T) {
	f := newFixture(t, "inproc", Config{SlowQuery: time.Nanosecond})
	c := NewClient(f.base)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := fmt.Sprintf("c-%d", i)
			res, err := c.QueryID(context.Background(), testQueries[i%len(testQueries)], id)
			if err != nil {
				t.Error(err)
				return
			}
			d, err := c.Trace(context.Background(), id)
			if err != nil {
				t.Errorf("trace %s: %v", id, err)
				return
			}
			if d.ID != id {
				t.Errorf("trace id = %q, want %q", d.ID, id)
			}
			if n := len(d.Root.Children); n != 1 {
				t.Errorf("trace %s: %d statement spans, want 1", id, n)
				return
			}
			if rows, ok := d.Root.Children[0].Int("rows"); !ok || rows != int64(len(res.Relation.Rows)) {
				t.Errorf("trace %s: rows attr = %d (ok=%v), want %d", id, rows, ok, len(res.Relation.Rows))
			}
		}(i)
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, body := get(t, f.base+"/metrics")
			if resp.StatusCode != http.StatusOK {
				t.Errorf("scrape = %d", resp.StatusCode)
			}
			parsePromText(t, string(body))
		}()
	}
	wg.Wait()
}

// scrape fetches and parses /metrics.
func scrape(t *testing.T, f *fixture) map[string]float64 {
	t.Helper()
	_, body := get(t, f.base+"/metrics")
	return parsePromText(t, string(body))
}

// TestPlanStatsSourceMetric: pushdownd_plan_stats_total says where each
// planned scan's statistics came from, so a table still planning by
// full-table probe shows up on a dashboard.
func TestPlanStatsSourceMetric(t *testing.T) {
	f := newFixture(t, "inproc", Config{})
	c := NewClient(f.base)
	ctx := context.Background()
	join := testQueries[3]
	want := map[string]float64{}
	check := func(when string) {
		t.Helper()
		series := scrape(t, f)
		for _, source := range []string{engine.StatsFromObject, engine.StatsFromProbe, "cached"} {
			if got := series[`pushdownd_plan_stats_total{source="`+source+`"}`]; got != want[source] {
				t.Errorf("%s: plan_stats_total{source=%q} = %v, want %v", when, source, got, want[source])
			}
		}
	}
	if _, err := c.QueryID(ctx, join, "stats-1"); err != nil {
		t.Fatal(err)
	}
	want[engine.StatsFromObject] = 2
	check("first plan")
	if _, err := c.Query(ctx, join); err != nil {
		t.Fatal(err)
	}
	want["cached"] = 2
	check("repeat")
	// A table whose statistics object is unusable plans by probe.
	if err := f.counting.Put(ctx, "shop", engine.StatsKey("orders"), []byte("not statistics")); err != nil {
		t.Fatal(err)
	}
	f.db.InvalidateStats()
	if _, err := c.Query(ctx, join); err != nil {
		t.Fatal(err)
	}
	want[engine.StatsFromObject], want[engine.StatsFromProbe] = 3, 1
	check("orders without a usable object")

	// The phase histogram files the new phase under its own kind, and the
	// first plan's trace shows the read and the estimate per table.
	if got := scrape(t, f)[`pushdownd_phase_sim_seconds_count{phase="plan stats"}`]; got < 4 {
		t.Errorf(`phase_sim_seconds_count{phase="plan stats"} = %v, want the GET and the estimate of two tables at least`, got)
	}
	d, err := c.Trace(ctx, "stats-1")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	d.Walk(func(sp *obs.SpanData, _ int) {
		if !strings.HasPrefix(sp.Name, "plan stats ") {
			return
		}
		bytes, _ := sp.Int("bytes")
		rows, _ := sp.Int("sample_rows")
		if bytes <= 0 || rows <= 0 {
			t.Errorf("span %q: bytes=%d sample_rows=%d", sp.Name, bytes, rows)
		}
		if source, ok := sp.Str("source"); ok {
			if _, ok := sp.Int("matched"); !ok || source != engine.StatsFromObject {
				t.Errorf("span %q: source=%q, matched set: %v", sp.Name, source, ok)
			}
			seen[sp.Name] = true
		}
	})
	if !seen["plan stats orders"] || !seen["plan stats customers"] {
		t.Errorf("no estimate span per table in the trace: %v", seen)
	}
}

// TestJoinStepQErrorMetric: every executed join step lands in the
// per-strategy q-error histogram beside join_steps_total.
func TestJoinStepQErrorMetric(t *testing.T) {
	f := newFixture(t, "inproc", Config{})
	c := NewClient(f.base)
	res, err := c.Query(context.Background(), "EXPLAIN ANALYZE "+testQueries[3])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(context.Background(), "EXPLAIN "+testQueries[3]); err != nil { // plans, runs no step
		t.Fatal(err)
	}
	series := scrape(t, f)
	var steps, observed, sum float64
	for _, strategy := range []string{engine.StrategyBaseline, engine.StrategyBloom, engine.StrategyFiltered} {
		steps += series[`pushdownd_join_steps_total{strategy="`+strategy+`"}`]
		observed += series[`pushdownd_join_step_qerror_count{strategy="`+strategy+`"}`]
		sum += series[`pushdownd_join_step_qerror_sum{strategy="`+strategy+`"}`]
	}
	if steps != 1 || observed != 1 || sum < 1 {
		t.Fatalf("join steps %v, q-errors observed %v summing to %v; want one step with a q-error of at least 1", steps, observed, sum)
	}
	// The histogram agrees with the plan the client was shown.
	var est, act float64
	for _, row := range res.Relation.Rows {
		if _, err := fmt.Sscanf(strings.TrimSpace(row[0].AsString()), "rows:   est ~%f, actual %f", &est, &act); err == nil {
			break
		}
	}
	if q := max(max(est, 1)/max(act, 1), max(act, 1)/max(est, 1)); est == 0 || sum != q {
		t.Errorf("q-error sum %v, the rendered plan says est %v actual %v (q %v)", sum, est, act, q)
	}
}

// TestExplainIsBilled: plain EXPLAIN of a join over a table without a
// statistics object plans it with a full-table COUNT probe, and the tenant
// pays for that planning as for any statement: the response, the tenant
// ledger and the audit line carry one cost, and the plan counters, which
// count plans that ran, do not move.
func TestExplainIsBilled(t *testing.T) {
	f := newFixture(t, "inproc", Config{})
	f.store.Delete("shop", engine.StatsKey("orders"))
	c := NewClient(f.base)
	c.Tenant = "planner"
	before := scrape(t, f)
	res, err := c.Query(context.Background(), "EXPLAIN "+testQueries[3])
	if err != nil {
		t.Fatal(err)
	}
	cost := res.Cost.Total()
	if res.Requests <= 0 || cost <= 0 || res.RuntimeSec <= 0 {
		t.Fatalf("EXPLAIN billed %d requests, $%v, %vs; want its planning", res.Requests, cost, res.RuntimeSec)
	}
	if got := f.srv.ledger.Usage("planner").Cost.Total(); got != cost {
		t.Errorf("ledger holds $%v for the tenant, the response says $%v", got, cost)
	}
	var line struct {
		Tenant  string  `json:"tenant"`
		SQL     string  `json:"sql"`
		CostUSD float64 `json:"cost_usd"`
	}
	if err := json.Unmarshal(bytes.TrimSpace(f.audit.Bytes()), &line); err != nil {
		t.Fatalf("want one audit line: %v\n%s", err, f.audit.String())
	}
	if line.Tenant != "planner" || line.SQL != "EXPLAIN "+testQueries[3] || line.CostUSD != cost {
		t.Errorf("audit line %+v, want the tenant billed $%v", line, cost)
	}
	after := scrape(t, f)
	for name, v := range after {
		for _, counter := range []string{"pushdownd_plan_stats_total", "pushdownd_access_total", "pushdownd_pushdown_fallback_total", "pushdownd_join_steps_total", "pushdownd_join_step_qerror"} {
			if strings.HasPrefix(name, counter) && v != before[name] {
				t.Errorf("EXPLAIN moved %s: %v -> %v", name, before[name], v)
			}
		}
	}
}

// TestAccessMetric: pushdownd_access_total says how each single-table
// statement that had an access decision to make ran — the strategy, and what
// it pushed beyond selection + projection — and the pushed tails' phases have
// kinds of their own.
func TestAccessMetric(t *testing.T) {
	f := newFixture(t, "inproc", Config{})
	c := NewClient(f.base)
	ctx := context.Background()
	for _, q := range []string{
		"SELECT COUNT(*) AS n, MAX(o_price) AS hi FROM orders WHERE o_qty < 5",          // a plain aggregation
		"SELECT o_id, o_price FROM orders ORDER BY o_price DESC, o_id LIMIT 3",          // a top-K
		"SELECT o_cust, COUNT(*) AS n FROM orders GROUP BY o_cust ORDER BY o_cust",      // numeric keys: not pushed
		"EXPLAIN SELECT o_id, o_price FROM orders ORDER BY o_price DESC, o_id LIMIT 3",  // plans, runs nothing
		"SELECT o_cust, SUM(o_price) AS total FROM orders GROUP BY o_cust",              // no decision to make
		"EXPLAIN ANALYZE SELECT o_id FROM orders WHERE o_qty < 5 ORDER BY o_id LIMIT 2", // runs
	} {
		if _, err := c.Query(ctx, q); err != nil {
			t.Fatalf("%q: %v", q, err)
		}
	}
	series := scrape(t, f)
	for labels, want := range map[string]float64{
		`strategy="filtered",pushed="s3-groupby"`:     1,
		`strategy="filtered",pushed="topk-threshold"`: 2,
		`strategy="filtered",pushed="none"`:           1,
	} {
		if got := series[`pushdownd_access_total{`+labels+`}`]; got != want {
			t.Errorf("access_total{%s} = %v, want %v", labels, got, want)
		}
	}
	for _, phase := range []string{"s3 aggregate", "threshold scan"} {
		if got := series[`pushdownd_phase_sim_seconds_count{phase="`+phase+`"}`]; got < 1 {
			t.Errorf("phase_sim_seconds_count{phase=%q} = %v, want the pushed tail's phase filed under its own kind", phase, got)
		}
	}
}

// TestPushdownFallbackMetric: a pushed tail whose check fails is counted by
// reason, and the statement still answers from what the table holds now. The
// partitions are overwritten at equal size, so the statistics object's stamps
// still match and its sample promises K rows over a threshold none passes.
func TestPushdownFallbackMetric(t *testing.T) {
	f := newFixture(t, "inproc", Config{})
	ctx := context.Background()
	keys, err := f.counting.List(ctx, "shop", "orders/")
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range keys {
		if key == engine.StatsKey("orders") {
			continue
		}
		data, err := f.counting.Get(ctx, "shop", key)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.SplitAfter(string(data), "\n")
		for i, line := range lines[1:] {
			if cells := strings.Split(strings.TrimSuffix(line, "\n"), ","); len(cells) == 4 {
				cells[2] = strings.Repeat("0", len(cells[2]))
				lines[i+1] = strings.Join(cells, ",") + "\n"
			}
		}
		if err := f.counting.Put(ctx, "shop", key, []byte(strings.Join(lines, ""))); err != nil {
			t.Fatal(err)
		}
	}
	res, err := NewClient(f.base).Query(ctx, "SELECT o_id, o_price FROM orders ORDER BY o_price DESC, o_id LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Relation.Rows) != 3 || res.Relation.Rows[0][1].String() != "0" {
		t.Errorf("the rerun answers from the overwritten table:\n%s", res.Relation)
	}
	series := scrape(t, f)
	if got := series[`pushdownd_pushdown_fallback_total{reason="`+engine.FallbackShortThreshold+`"}`]; got != 1 {
		t.Errorf("pushdown_fallback_total{reason=%q} = %v, want 1", engine.FallbackShortThreshold, got)
	}
	if got := series[`pushdownd_access_total{strategy="filtered",pushed="topk-threshold"}`]; got != 1 {
		t.Errorf("access_total counts the decision that ran, fallback or not: %v", got)
	}
}
