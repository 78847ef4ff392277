package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"pushdowndb/internal/engine"
	"pushdowndb/internal/s3api"
	"pushdowndb/internal/store"
)

// runConfig is one run of one workload, as the driver asks for it.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	quick    bool   // SF 0.002, one set-up, no warm-up: the smoke test's shape
	outDir   string // where the traced run writes <workload>.trace.json
}

// runResult is the result line: the last line of standard output.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// outcome is everything one run measured. An untraced run's per-layer set
// holds only the measured run's wall-clock metrics; a traced run, which is
// an untraced run with one set-up and further phases after it, fills both.
type outcome struct {
	attempted, failed int
	endToEnd          metricSet
	perLayer          metricSet
}

// resultLine picks the metric set the driver asked for.
func (o outcome) resultLine(trace bool) runResult {
	res := runResult{Correct: o.failed == 0 && o.attempted > 0, Attempted: o.attempted, Failed: o.failed}
	if trace {
		res.Metrics = o.perLayer.render(perLayer)
	} else {
		res.Metrics = o.endToEnd.render(endToEnd)
	}
	return res
}

// Every phase length derives from --seconds, so a shorter contract
// shortens every window equally, as the issue asks.
const (
	measuredWindows = 5
	// The warm-up lasts one window.
	warmupShare = 1.0 / measuredWindows
	// The issue's 20 s two-client phase against 40 s measured.
	twoClientShare = 0.25
)

// digest identifies an answer: the hash of the relation rendered as
// internal/tpch/golden_test.go renders its goldens.
type digest [sha256.Size]byte

func digestOf(rel *engine.Relation) digest {
	h := sha256.New()
	w := bufio.NewWriter(h) // a hash never fails a write
	w.WriteString(strings.Join(rel.Cols, "|"))
	w.WriteByte('\n')
	for _, row := range rel.Rows {
		for j, v := range row {
			if j > 0 {
				w.WriteByte('|')
			}
			w.WriteString(v.String())
		}
		w.WriteByte('\n')
	}
	w.Flush()
	var d digest
	h.Sum(d[:0])
	return d
}

// runner carries one run's state across its phases.
type runner struct {
	cfg      runConfig
	spec     *workloadSpec
	sf       float64
	stmts    []statement
	expected []digest // the oracle's answer per statement

	attempted, failed int
	firstFailure      string
	setupSecs         []float64 // every timed set-up; setup_s is their median
}

// check counts one response against the oracle and reports whether it was
// a correct answer. Errors, refusals and wrong answers all count as
// failed.
func (r *runner) check(stmt int, rep reply, err error) bool {
	r.attempted++
	var why string
	switch {
	case err != nil:
		why = err.Error()
	case digestOf(rep.rel) != r.expected[stmt]:
		why = "answer differs from the reference DB's"
	default:
		return true
	}
	r.failed++
	if r.firstFailure == "" {
		r.firstFailure = fmt.Sprintf("statement %d (%s): %s", stmt, r.stmts[stmt].template, why)
	}
	return false
}

// sequence yields the next unit of work: one whole round-robin cycle over
// the statements, or one shuffled deck of serve_zipf's stream. Either way
// a unit holds the workload's full mix.
type sequence func() []int

func (r *runner) newSequence(seed int64) sequence {
	if r.spec.served {
		return newServeStream(seed).deal
	}
	cycle := make([]int, len(r.stmts))
	for i := range cycle {
		cycle[i] = i
	}
	return func() []int { return cycle }
}

// sample is one correct answer's latency.
type sample struct {
	stmt int
	ms   float64
}

// phase is what one closed-loop, one-client stretch of requests measured.
type phase struct {
	samples  []sample
	windows  []window
	heapPeak float64 // MB, polled between units
}

func (p *phase) queries() int { return len(p.samples) }

// latencies returns the pooled latencies, or one template's.
func (p *phase) latencies(stmts []statement, template string) []float64 {
	var out []float64
	for _, s := range p.samples {
		if template == "" || stmts[s.stmt].template == template {
			out = append(out, s.ms)
		}
	}
	return out
}

// drive runs units of seq against inst, one request at a time, until
// seconds have passed, closing a window at the first unit boundary at or
// after each nominal window end. Every response is checked against the
// oracle outside its timed interval, and the time spent checking is taken
// out of the window's length.
func (r *runner) drive(ctx context.Context, inst *instance, seq sequence, seconds float64, nWindows int) phase {
	var p phase
	start := time.Now()
	winStart, winQueries, winChecking := start, 0, time.Duration(0)
	next := 1
	for next <= nWindows {
		if inst.spec.cold {
			inst.db.InvalidateStats()
		}
		for _, stmt := range seq() {
			rep, err := inst.issue(ctx, &r.stmts[stmt], "")
			c0 := time.Now()
			if r.check(stmt, rep, err) {
				p.samples = append(p.samples, sample{stmt, float64(rep.wall) / float64(time.Millisecond)})
				winQueries++
			}
			winChecking += time.Since(c0)
		}
		if h := liveHeapMB(); h > p.heapPeak {
			p.heapPeak = h
		}
		now := time.Now()
		elapsed := now.Sub(start).Seconds()
		if elapsed < float64(next)*seconds/float64(nWindows) {
			continue
		}
		p.windows = append(p.windows, window{winQueries, (now.Sub(winStart) - winChecking).Seconds()})
		winStart, winQueries, winChecking = now, 0, 0
		for next <= nWindows && elapsed >= float64(next)*seconds/float64(nWindows) {
			next++
		}
	}
	return p
}

// setUp generates and loads the tables, opens the DB and starts the server,
// and times it. A collection first, so that no set-up pays for the garbage
// of whatever ran before it.
func (r *runner) setUp(ctx context.Context) (*instance, float64, error) {
	runtime.GC()
	t0 := time.Now()
	st, err := loadStore(ctx, r.spec, r.sf, r.cfg.seed)
	if err != nil {
		return nil, 0, err
	}
	inst, err := open(ctx, r.spec, st, s3api.NewInProc(st), r.sf)
	if err != nil {
		return nil, 0, err
	}
	return inst, time.Since(t0).Seconds(), nil
}

// spareSetUps times n more set-ups and throws the instances away. The run
// calls it at three points some ten seconds apart — before the set-up it
// keeps, before the warm-up and after the measured run — because this
// sandbox's speed shifts every few seconds and a set-up lasts a fraction of
// one: five samples taken together would all land in the same mood. The
// traced run and -quick skip them; setup_s is an untraced metric.
func (r *runner) spareSetUps(ctx context.Context, n int) error {
	if r.cfg.trace || r.cfg.quick {
		return nil
	}
	for i := 0; i < n; i++ {
		inst, sec, err := r.setUp(ctx)
		if err != nil {
			return err
		}
		r.setupSecs = append(r.setupSecs, sec)
		if err := inst.close(ctx); err != nil {
			return err
		}
	}
	return nil
}

// buildOracle computes every statement's expected answer on a reference DB
// over the same store: row-at-a-time operators, no cache, no sharing.
func (r *runner) buildOracle(ctx context.Context, st *store.Store) error {
	ref, err := engine.Open(benchBucket, r.spec.options(s3api.NewInProc(st), r.sf, true)...)
	if err != nil {
		return err
	}
	r.expected = make([]digest, len(r.stmts))
	for i := range r.stmts {
		rel, _, err := r.stmts[i].run(ctx, ref)
		if err != nil {
			return fmt.Errorf("reference answer for %s: %w", r.stmts[i].template, err)
		}
		r.expected[i] = digestOf(rel)
	}
	return nil
}

func runWorkload(ctx context.Context, cfg runConfig) (outcome, error) {
	spec, ok := workloadSpecs[cfg.workload]
	if !ok {
		return outcome{}, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	r := &runner{cfg: cfg, spec: spec, sf: benchSF, stmts: spec.statements()}
	if cfg.quick {
		r.sf = quickSF
	}

	if err := r.spareSetUps(ctx, 1); err != nil {
		return outcome{}, err
	}
	inst, sec, err := r.setUp(ctx)
	if err != nil {
		return outcome{}, err
	}
	r.setupSecs = append(r.setupSecs, sec)
	defer inst.close(ctx)
	if err := r.buildOracle(ctx, inst.store); err != nil {
		return outcome{}, err
	}

	// Answer check: every statement once, in order, one client, on the
	// fresh DB. The virtual clock and bill of this pass are the run's
	// virt_* metrics: they depend on nothing but the seed.
	var virtSec, virtUSD float64
	if spec.cold {
		inst.db.InvalidateStats()
	}
	for i := range r.stmts {
		rep, err := inst.issue(ctx, &r.stmts[i], "")
		if r.check(i, rep, err) {
			virtSec += rep.virtSec
			virtUSD += rep.virtUSD
		}
	}

	if err := r.spareSetUps(ctx, 1); err != nil {
		return outcome{}, err
	}
	// Set-up, the oracle and the answer check leave garbage of their own;
	// collect it here so the warm-up starts every run from the same heap.
	runtime.GC()

	seq := r.newSequence(cfg.seed)
	if !cfg.quick {
		r.drive(ctx, inst, seq, cfg.seconds*warmupShare, 1)
	}

	var ms measured
	ms.cacheBefore, _ = inst.db.ResultCacheStats()
	ms.before = snapProc()
	ms.run = r.drive(ctx, inst, seq, cfg.seconds, measuredWindows)
	ms.after = snapProc()
	ms.cacheAfter, _ = inst.db.ResultCacheStats()
	peakRSS := peakRSSMB()
	if err := r.spareSetUps(ctx, 2); err != nil {
		return outcome{}, err
	}

	q := float64(ms.run.queries())
	var medians []float64
	for _, t := range templatesOf(r.stmts) {
		medians = append(medians, median(ms.run.latencies(r.stmts, t)))
	}
	out := outcome{
		endToEnd: metricSet{
			"setup_s":            median(r.setupSecs),
			"alloc_mb_per_query": ratio(float64(ms.after.totalAlloc-ms.before.totalAlloc)/(1<<20), q),
			"mallocs_per_query":  ratio(float64(ms.after.mallocs-ms.before.mallocs), q),
			"rss_mb_peak":        peakRSS,
			"virt_runtime_s":     virtSec,
			"virt_cost_usd":      virtUSD,
		},
		perLayer: metricSet{
			"queries_per_s":    medianRate(ms.run.windows),
			"wall_ms_geomean":  geomean(medians),
			"wall_ms_p90":      percentile(ms.run.latencies(r.stmts, ""), 90),
			"cpu_ms_per_query": ratio((ms.after.cpuSec-ms.before.cpuSec)*1000, q),
		},
	}
	fmt.Fprintf(os.Stderr, "bench: %s seed %d: %.4g queries/s, geomean %.4g ms, p90 %.4g ms, %.4g CPU ms/query over %d samples; p%g is the highest percentile with %d samples beyond it\n",
		cfg.workload, cfg.seed, out.perLayer["queries_per_s"], out.perLayer["wall_ms_geomean"], out.perLayer["wall_ms_p90"],
		out.perLayer["cpu_ms_per_query"], ms.run.queries(), highestSupportedPercentile(ms.run.queries()), minTailSamples)

	if cfg.trace {
		if err := r.tracedRun(ctx, inst, ms, out.perLayer); err != nil {
			return outcome{}, err
		}
	}
	if err := inst.close(ctx); err != nil {
		return outcome{}, err
	}
	if r.failed > 0 {
		fmt.Fprintf(os.Stderr, "bench: %s: %d of %d requests failed; first: %s\n", cfg.workload, r.failed, r.attempted, r.firstFailure)
	}
	out.attempted, out.failed = r.attempted, r.failed
	return out, nil
}

// firstOfEachTemplate returns the index of the first statement of every
// template, in order.
func firstOfEachTemplate(stmts []statement) []int {
	var out []int
	seen := map[string]bool{}
	for i, s := range stmts {
		if !seen[s.template] {
			seen[s.template] = true
			out = append(out, i)
		}
	}
	return out
}

// templatesOf returns the distinct template names of stmts in first-seen
// order.
func templatesOf(stmts []statement) []string {
	var out []string
	for _, i := range firstOfEachTemplate(stmts) {
		out = append(out, stmts[i].template)
	}
	return out
}
