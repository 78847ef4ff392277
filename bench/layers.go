package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"pushdowndb/internal/colformat"
	"pushdowndb/internal/csvx"
	"pushdowndb/internal/engine"
	"pushdowndb/internal/harness"
	"pushdowndb/internal/obs"
	"pushdowndb/internal/rescache"
	"pushdowndb/internal/s3api"
	"pushdowndb/internal/selectengine"
	"pushdowndb/internal/sqlparse"
	"pushdowndb/internal/tpch"
	"pushdowndb/internal/vec"
)

// measured is what the untraced measured run recorded, handed to the
// traced run so the per-layer report can set its numbers beside it.
type measured struct {
	run                     phase
	before, after           procSnap
	cacheBefore, cacheAfter rescache.Stats // zero on workloads without a result cache
}

const (
	// tracedCycles is how often the traced pass walks a round-robin
	// workload's template list; tracedRequestsPerSecond sizes serve_zipf's
	// traced stream (the issue's 120 requests at 40 measured seconds,
	// less a third so the traced run stays inside the per-run budget).
	tracedCycles            = 3
	tracedRequestsPerSecond = 2.0
	// directRepeats is how often each direct layer call runs; the median
	// is reported.
	directRepeats = 3
)

// tracedRun fills m with every per-layer metric: the process and per-query
// numbers of the measured run, the traced pass on a second DB over the
// same store, the direct layer calls on the workload's own objects, and
// for served workloads the two-client phase.
func (r *runner) tracedRun(ctx context.Context, inst *instance, ms measured, m metricSet) error {
	q := float64(ms.run.queries())
	m["process.gc_cycles_per_query"] = ratio(float64(ms.after.numGC-ms.before.numGC), q)
	m["process.gc_cpu_frac"] = ratio(ms.after.gcCPUSec-ms.before.gcCPUSec, ms.after.allCPUSec-ms.before.allCPUSec)
	m["process.heap_live_mb_peak"] = ms.run.heapPeak
	m["process.steal_frac"] = ratio(ms.after.stealTicks-ms.before.stealTicks, ms.after.allTicks-ms.before.allTicks)
	for _, t := range templatesOf(r.stmts) {
		lat := ms.run.latencies(r.stmts, t)
		m["query."+t+"_ms_p50"] = median(lat)
		m["query."+t+"_samples"] = float64(len(lat))
	}
	if ms.cacheAfter.BudgetBytes > 0 {
		hits := float64(ms.cacheAfter.Hits - ms.cacheBefore.Hits)
		misses := float64(ms.cacheAfter.Misses - ms.cacheBefore.Misses)
		m["rescache.hit_ratio"] = ratio(hits, hits+misses)
		m["rescache.evictions_per_query"] = ratio(float64(ms.cacheAfter.Evictions-ms.cacheBefore.Evictions), q)
		m["rescache.used_mb"] = float64(ms.cacheAfter.UsedBytes) / (1 << 20)
	}

	timed := newTimedBackend(s3api.NewInProc(inst.store))
	tinst, err := open(ctx, r.spec, inst.store, timed, r.sf)
	if err != nil {
		return err
	}
	defer tinst.close(ctx)
	if err := r.tracedPass(ctx, tinst, timed, ms.run, m); err != nil {
		return err
	}
	if r.spec.served {
		if err := wireBytes(ctx, tinst, r.stmts, m); err != nil {
			return err
		}
	}
	if err := tinst.close(ctx); err != nil {
		return err
	}

	results := replaySelects(inst, timed.recorded, m)
	parseTimes(r.stmts, m)
	decodeRates(inst, m)
	if err := vecRates(inst, m); err != nil {
		return err
	}
	if r.spec.served {
		cacheGets(timed.recorded, results, m)
		return r.twoClients(ctx, inst, m)
	}
	if r.spec.name == "baseline_local" {
		return pushdownRatios(inst.db, m)
	}
	return nil
}

// tracedOrder lists the statements of the traced pass: the template list a
// few times over, or on serve_zipf one request of every template — so the
// per-template numbers never depend on the shuffle — and then the start of
// a deck.
func (r *runner) tracedOrder() []int {
	var order []int
	if !r.spec.served {
		cycles := tracedCycles
		if r.cfg.quick {
			cycles = 1
		}
		for c := 0; c < cycles; c++ {
			for i := range r.stmts {
				order = append(order, i)
			}
		}
		return order
	}
	order = firstOfEachTemplate(r.stmts)
	deck := newServeStream(r.cfg.seed).deal()
	return append(order, deck[:min(len(deck), int(tracedRequestsPerSecond*r.cfg.seconds))]...)
}

// tracedQuery sends one statement and returns the program's span tree for
// it: the trace attached to the context in process, the one the server
// kept over HTTP.
func tracedQuery(ctx context.Context, tinst *instance, timed *timedBackend, st *statement, id string) (reply, *obs.TraceData, error) {
	if tinst.client != nil {
		rep, err := tinst.issue(ctx, st, id)
		if err != nil {
			return rep, nil, err
		}
		data, err := tinst.client.Trace(ctx, id)
		return rep, data, err
	}
	tr := obs.New(id, "query")
	timed.root.Store(tr.Root())
	rep, err := tinst.issue(obs.WithTrace(ctx, tr), st, "")
	tr.Finish()
	return rep, tr.Snapshot(), err
}

// passTotals sums what the traced pass read off its queries.
type passTotals struct {
	served     bool
	queries    float64
	classUS    [numClasses]int64
	rootUS     int64
	counts     spanCounts
	rowsOut    int64
	requests   int64
	qerrMax    float64
	latencyMS  map[string][]float64 // by template
	overheadMS []float64            // served: round trip minus the server's root span
	perRowUS   []float64            // served: the same per row, on export_rows
}

func (t *passTotals) add(template string, rep reply, root *obs.SpanData) {
	t.queries++
	for c, us := range attribute(root) {
		t.classUS[c] += us
	}
	t.rootUS += root.DurUS
	sc := countSpans(root)
	t.counts.probeSelects += sc.probeSelects
	for k, v := range sc.joinSteps {
		t.counts.joinSteps[k] += v
	}
	t.rowsOut += int64(len(rep.rel.Rows))
	t.requests += rep.requests
	latMS := float64(rep.wall) / float64(time.Millisecond)
	t.latencyMS[template] = append(t.latencyMS[template], latMS)
	if rep.exec != nil && rep.exec.QueryPlan() != nil {
		for _, step := range rep.exec.QueryPlan().Steps {
			est, act := float64(max(step.EstRows, 1)), float64(max(step.ActualRows, 1))
			t.qerrMax = max(t.qerrMax, est/act, act/est)
		}
	}
	if t.served {
		over := latMS - float64(root.DurUS)/1000
		t.overheadMS = append(t.overheadMS, over)
		if template == "export_rows" && len(rep.rel.Rows) > 0 {
			t.perRowUS = append(t.perRowUS, over*1000/float64(len(rep.rel.Rows)))
		}
	}
}

// tracedPass sends each statement of tracedOrder traced, wraps it in the
// benchmark's own parse / query / verify spans, splits every query's wall
// time by span class, and writes the whole pass as one Chrome trace file.
func (r *runner) tracedPass(ctx context.Context, tinst *instance, timed *timedBackend, run phase, m metricSet) error {
	var (
		totals     = passTotals{served: r.spec.served, counts: spanCounts{joinSteps: map[string]int{}}, latencyMS: map[string][]float64{}}
		passStart  = time.Now()
		nextID     = 1
		fileRoot   = &obs.SpanData{ID: 1, Name: "traced pass " + r.spec.name}
		sinceStart = func(t time.Time) int64 { return t.Sub(passStart).Microseconds() }
		benchSpan  = func(name string, from, to time.Time) *obs.SpanData {
			nextID++
			return &obs.SpanData{ID: nextID, Name: name, StartUS: sinceStart(from), DurUS: to.Sub(from).Microseconds()}
		}
	)
	for n, stmt := range r.tracedOrder() {
		st := &r.stmts[stmt]
		if r.spec.cold && stmt == 0 {
			tinst.db.InvalidateStats()
		}
		p0 := time.Now()
		if st.sql != "" {
			if _, err := sqlparse.ParseStatement(st.sql); err != nil {
				return fmt.Errorf("parsing %s: %w", st.template, err)
			}
		}
		q0 := time.Now()
		rep, data, err := tracedQuery(ctx, tinst, timed, st, fmt.Sprintf("bench-%d", n))
		// The query ended when the answer arrived, not when the trace
		// snapshot or fetch that followed it did.
		q1 := q0.Add(rep.wall)
		if !r.check(stmt, rep, err) {
			continue
		}
		v1 := time.Now()

		node := benchSpan("bench "+st.template, p0, v1)
		query := benchSpan("query", q0, q1)
		graft(query, data.Root, sinceStart(data.Start), &nextID)
		node.Children = []*obs.SpanData{benchSpan("parse", p0, q0), query, benchSpan("verify", q1, v1)}
		fileRoot.Children = append(fileRoot.Children, node)
		totals.add(st.template, rep, data.Root)
	}
	fileRoot.DurUS = sinceStart(time.Now())
	if totals.queries == 0 {
		return fmt.Errorf("the traced pass got no correct answer")
	}
	totals.report(r, tinst, timed, run, m)

	if err := os.MkdirAll(r.cfg.outDir, 0o755); err != nil {
		return err
	}
	file := &obs.TraceData{ID: r.spec.name, Start: passStart, Root: fileRoot}
	return os.WriteFile(filepath.Join(r.cfg.outDir, r.spec.name+".trace.json"), file.ChromeTrace(), 0o644)
}

// report turns the pass's sums, and the timing wrapper's, into per-query
// averages.
func (t *passTotals) report(r *runner, tinst *instance, timed *timedBackend, run phase, m metricSet) {
	n := t.queries
	perQueryMS := func(us int64) float64 { return float64(us) / 1000 / n }
	m["engine.plan_ms"] = perQueryMS(t.classUS[classPlan])
	m["engine.plan_share"] = ratio(float64(t.classUS[classPlan]), float64(t.rootUS))
	m["engine.probe_selects"] = float64(t.counts.probeSelects) / n
	m["engine.scan_wait_ms"] = perQueryMS(t.classUS[classScan])
	m["engine.decode_ms"] = perQueryMS(t.classUS[classDecode])
	m["engine.local_ms"] = perQueryMS(t.classUS[classLocal])
	m["engine.glue_ms"] = perQueryMS(t.classUS[classGlue])
	m["engine.unattributed_frac"] = ratio(float64(t.classUS[classRoot]), float64(t.rootUS))
	m["engine.plan_qerror_max"] = t.qerrMax
	for _, s := range []string{engine.StrategyBloom, engine.StrategyBaseline, engine.StrategyFiltered, engine.StrategyIndexScan} {
		m["engine.join_steps_"+s] = float64(t.counts.joinSteps[s]) / n
	}

	timed.mu.Lock()
	defer timed.mu.Unlock()
	const mb = 1 << 20
	dataRatio := tinst.db.Sim.DataRatio
	m["engine.rows_in_per_row_out"] = ratio(float64(timed.stats.RowsScanned+timed.getRows), float64(t.rowsOut))
	m["selectengine.busy_ms"] = float64(timed.selectBusy) / float64(time.Millisecond) / n
	m["selectengine.selects"] = float64(timed.selects) / n
	m["selectengine.rows_out_per_row_in"] = ratio(float64(timed.stats.RowsReturned), float64(timed.stats.RowsScanned))
	m["selectengine.returned_kb"] = float64(timed.stats.BytesReturned) / 1024 / n
	m["selectengine.cells_decoded"] = float64(timed.stats.CellsDecoded) / n
	m["colformat.decompress_mb"] = float64(timed.stats.DecompressBytes) / mb / n
	m["s3api.gets"] = float64(timed.gets) / n
	m["s3api.get_mb"] = float64(timed.getBytes) / mb / n
	m["s3api.get_busy_ms"] = float64(timed.getBusy) / float64(time.Millisecond) / n
	// Requests are cloudsim's own count. Bytes are the wrapper's, at the
	// DB's data ratio: the same selectengine.Stats cloudsim is fed, which
	// the HTTP wire does not carry.
	m["cloudsim.requests"] = float64(t.requests) / n
	m["cloudsim.scan_gb"] = float64(timed.stats.BytesScanned) * dataRatio / 1e9 / n
	m["cloudsim.transfer_gb"] = float64(timed.stats.BytesReturned+timed.getBytes) * dataRatio / 1e9 / n

	if t.served {
		m["server.overhead_ms_p50"] = median(t.overheadMS)
		m["server.overhead_us_per_row"] = median(t.perRowUS)
		return
	}
	// Tracing is what differs between this pass and the measured run. On
	// serve_zipf it does not — the server traces by default — and this
	// pass's cache starts cold, so the ratio would measure that.
	var ratios []float64
	for _, tpl := range templatesOf(r.stmts) {
		if base := median(run.latencies(r.stmts, tpl)); base > 0 && len(t.latencyMS[tpl]) > 0 {
			ratios = append(ratios, median(t.latencyMS[tpl])/base-1)
		}
	}
	m["obs.trace_overhead_frac"] = median(ratios)
}

// wireBytes posts one statement of every template raw and divides the
// response bodies by the rows they carried.
func wireBytes(ctx context.Context, tinst *instance, stmts []statement, m metricSet) error {
	var totalBytes, totalRows float64
	for _, i := range firstOfEachTemplate(stmts) {
		st := &stmts[i]
		body, err := json.Marshal(map[string]string{"sql": st.sql})
		if err != nil {
			return err
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, tinst.client.BaseURL+"/query", bytes.NewReader(body))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := tinst.client.HTTPClient.Do(req)
		if err != nil {
			return err
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		var decoded struct {
			Rows []json.RawMessage `json:"rows"`
		}
		if resp.StatusCode != http.StatusOK || json.Unmarshal(raw, &decoded) != nil {
			return fmt.Errorf("raw POST of %s: status %d", st.template, resp.StatusCode)
		}
		totalBytes += float64(len(raw))
		totalRows += float64(max(len(decoded.Rows), 1))
	}
	m["server.wire_bytes_per_row"] = ratio(totalBytes, totalRows)
	return nil
}

// replaySelects runs the select engine alone, one thread, once over every
// distinct request the traced pass recorded, and returns the results for
// cacheGets. A request that fails here succeeded in the pass, so it is
// skipped rather than reported.
func replaySelects(inst *instance, recorded []recordedSelect, m metricSet) []*selectengine.Result {
	var scanned float64
	var busy time.Duration
	results := make([]*selectengine.Result, len(recorded))
	for i, rec := range recorded {
		data, err := inst.store.Get(rec.bucket, rec.key)
		if err != nil {
			continue
		}
		t0 := time.Now()
		res, err := selectengine.Execute(data, rec.req)
		if err != nil {
			continue
		}
		busy += time.Since(t0)
		scanned += float64(res.Stats.BytesScanned)
		results[i] = res
	}
	m["selectengine.scan_mb_per_s"] = ratio(scanned/(1<<20), busy.Seconds())
	return results
}

// parseTimes times sqlparse.ParseStatement on each distinct SQL text.
func parseTimes(stmts []statement, m metricSet) {
	const parses = 20
	var perText []float64
	for _, st := range stmts {
		if st.sql == "" {
			continue
		}
		t0 := time.Now()
		for i := 0; i < parses; i++ {
			if _, err := sqlparse.ParseStatement(st.sql); err != nil {
				return
			}
		}
		perText = append(perText, float64(time.Since(t0).Microseconds())/parses)
	}
	m["sqlparse.parse_us"] = median(perText)
}

// timeMedian runs fn directRepeats times and returns the median seconds.
func timeMedian(fn func()) float64 {
	var secs []float64
	for i := 0; i < directRepeats; i++ {
		t0 := time.Now()
		fn()
		secs = append(secs, time.Since(t0).Seconds())
	}
	return median(secs)
}

// lineitemTable is the workload's own lineitem: CSV, or colformat on
// columnar_cold.
func lineitemTable(inst *instance) (table string, columnar bool) {
	if len(inst.store.TableParts(benchBucket, "lineitem")) > 0 {
		return "lineitem", false
	}
	return "lineitem_col", true
}

// decodeRates times the storage formats' decoders over every lineitem
// partition: csvx.Decode on CSV objects, colformat Open + ReadColumn over
// every chunk on columnar ones.
func decodeRates(inst *instance, m metricSet) {
	table, columnar := lineitemTable(inst)
	var objects [][]byte
	var total float64
	for _, key := range inst.store.TableParts(benchBucket, table) {
		if data, err := inst.store.Get(benchBucket, key); err == nil {
			objects = append(objects, data)
			total += float64(len(data))
		}
	}
	secs := timeMedian(func() {
		for _, data := range objects {
			if !columnar {
				_, _, _ = csvx.Decode(data, true) // loaded by this run, so well-formed
				continue
			}
			rd, err := colformat.Open(data)
			if err != nil {
				continue
			}
			for g := 0; g < rd.NumRowGroups(); g++ {
				for c := range rd.Schema() {
					_, _, _ = rd.ReadColumn(g, c) // timing only
				}
			}
		}
	})
	name := "csvx.decode_mb_per_s"
	if columnar {
		name = "colformat.read_mb_per_s"
	}
	m[name] = ratio(total/(1<<20), secs)
}

// vecRates times the row↔vector conversions and, through
// harness.VecBenchCases, the vectorized kernels over the workload's own
// lineitem and part tables.
func vecRates(inst *instance, m metricSet) error {
	lineitem, columnar := lineitemTable(inst)
	part := "part"
	if columnar {
		part = "part_col"
	}
	exec := inst.db.NewExec()
	li, err := exec.LoadTable("load "+lineitem, 0, lineitem)
	if err != nil {
		return err
	}
	pt, err := exec.LoadTable("load "+part, 0, part)
	if err != nil {
		return err
	}
	workers := runtime.NumCPU()
	mrows := func(rows int, secs float64) float64 { return ratio(float64(rows)/1e6, secs) }

	if !columnar {
		var header []string
		var cells [][]string
		for _, key := range inst.store.TableParts(benchBucket, lineitem) {
			data, err := inst.store.Get(benchBucket, key)
			if err != nil {
				return err
			}
			h, rows, err := csvx.Decode(data, true)
			if err != nil {
				return err
			}
			header, cells = h, append(cells, rows...)
		}
		m["vec.from_strings_mrows_per_s"] = mrows(len(cells), timeMedian(func() { vec.FromStrings(header, cells, workers) }))
	}
	m["vec.from_rows_mrows_per_s"] = mrows(len(li.Rows), timeMedian(func() { vec.FromRows(li.Cols, li.Rows, workers) }))
	batch, ok := vec.FromRows(li.Cols, li.Rows, workers)
	if !ok {
		return fmt.Errorf("lineitem is ragged")
	}
	m["vec.to_rows_mrows_per_s"] = mrows(len(li.Rows), timeMedian(func() { batch.ToRows() }))

	fixture := &harness.VecBenchFixture{Lineitem: li, Part: pt, Workers: workers}
	for _, c := range harness.VecBenchCases() {
		rows := len(li.Rows)
		if c.Name == "join" {
			rows += len(pt.Rows)
		}
		var runErr error
		secs := timeMedian(func() {
			if _, err := c.Run(fixture, true); err != nil {
				runErr = err
			}
		})
		if runErr != nil {
			return fmt.Errorf("vec case %s: %w", c.Name, runErr)
		}
		m["vec."+c.Name+"_mrows_per_s"] = mrows(rows, secs)
	}
	return nil
}

// cacheGets times rescache.Get on a cache of its own filled with the
// replayed select responses.
func cacheGets(recorded []recordedSelect, results []*selectengine.Result, m metricSet) {
	cache := rescache.New(64 << 20)
	var keys []rescache.Key
	for i, rec := range recorded {
		if results[i] == nil {
			continue
		}
		k := rescache.Key{Backend: "inproc", Bucket: rec.bucket, Object: rec.key, Query: rec.req.SQL}
		cache.Put(k, cache.Generation(rec.bucket, rec.key), results[i])
		keys = append(keys, k)
	}
	if len(keys) == 0 {
		return
	}
	const gets = 20000
	secs := timeMedian(func() {
		for i := 0; i < gets; i++ {
			cache.Get(keys[i%len(keys)])
		}
	})
	m["rescache.get_us"] = secs * 1e6 / gets
}

// twoClients runs two closed-loop clients side by side on the measured
// instance. On two cores this measures the scheduler as much as the
// program, so it feeds per-layer metrics only.
func (r *runner) twoClients(ctx context.Context, inst *instance, m metricSet) error {
	type clientResult struct {
		latencies         []float64
		attempted, failed int
	}
	shareBefore, _ := inst.db.ScanShareStats()
	before := snapProc()
	deadline := time.Now().Add(time.Duration(r.cfg.seconds * twoClientShare * float64(time.Second)))
	results := make([]clientResult, 2)
	var wg sync.WaitGroup
	for c := range results {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			stream := newServeStream(r.cfg.seed + int64(c) + 1)
			res := &results[c]
			for time.Now().Before(deadline) {
				for _, stmt := range stream.deal() {
					if !time.Now().Before(deadline) {
						break
					}
					rep, err := inst.issue(ctx, &r.stmts[stmt], "")
					res.attempted++
					if err != nil || digestOf(rep.rel) != r.expected[stmt] {
						res.failed++
						continue
					}
					res.latencies = append(res.latencies, float64(rep.wall)/float64(time.Millisecond))
				}
			}
		}(c)
	}
	wg.Wait()
	after := snapProc()
	shareAfter, _ := inst.db.ScanShareStats()

	var pooled []float64
	for _, res := range results {
		pooled = append(pooled, res.latencies...)
		r.attempted += res.attempted
		r.failed += res.failed
		if res.failed > 0 && r.firstFailure == "" {
			r.firstFailure = "a two-client request failed or answered wrongly"
		}
	}
	q := float64(len(pooled))
	m["server.qps_c2"] = ratio(q, after.wall.Sub(before.wall).Seconds())
	m["server.wall_ms_p90_c2"] = percentile(pooled, 90)
	m["server.cpu_ms_per_query_c2"] = ratio((after.cpuSec-before.cpuSec)*1000, q)
	selects := float64(shareAfter.Selects - shareBefore.Selects)
	m["scanshare.coalesced_frac"] = ratio(float64(shareAfter.Coalesced-shareBefore.Coalesced), selects)
	m["scanshare.sharers_per_pass"] = ratio(float64(shareAfter.Sharers-shareBefore.Sharers), float64(shareAfter.SharedPasses-shareBefore.SharedPasses))
	m["scanshare.fallbacks"] = float64(shareAfter.Fallbacks - shareBefore.Fallbacks)

	// Refusals over everything the measured server saw: answer check,
	// warm-up, measured run and this phase.
	stats, err := inst.client.Stats(ctx)
	if err != nil {
		return err
	}
	var rejected int64
	for _, n := range stats.Rejected {
		rejected += n
	}
	m["server.rejected_frac"] = ratio(float64(rejected), float64(rejected+stats.Accepted))
	return nil
}

// pushdownRatios reports the paper's headline pair at this seed: Σ baseline
// ÷ Σ optimized virtual time and Σ optimized ÷ Σ baseline virtual dollars
// over tpch.Queries(), untimed. baseline_local carries it because its
// tables and scale are the paper's.
func pushdownRatios(db *engine.DB, m metricSet) error {
	var baseSec, baseUSD, optSec, optUSD float64
	for _, q := range tpch.Queries() {
		_, b, err := q.Baseline(db)
		if err != nil {
			return fmt.Errorf("%s baseline: %w", q.Name, err)
		}
		_, o, err := q.Optimized(db)
		if err != nil {
			return fmt.Errorf("%s optimized: %w", q.Name, err)
		}
		baseSec, baseUSD = baseSec+b.RuntimeSeconds(), baseUSD+b.Cost().Total()
		optSec, optUSD = optSec+o.RuntimeSeconds(), optUSD+o.Cost().Total()
	}
	m["cloudsim.pushdown_speedup_x"] = ratio(baseSec, optSec)
	m["cloudsim.pushdown_cost_ratio"] = ratio(optUSD, baseUSD)
	return nil
}
