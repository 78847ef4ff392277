package engine_test

import (
	"context"
	"sort"
	"testing"

	"pushdowndb/internal/cloudsim"
	"pushdowndb/internal/engine"
	"pushdowndb/internal/obs"
	"pushdowndb/internal/s3api"
	"pushdowndb/internal/store"
	"pushdowndb/internal/tpch"
)

// The step contract (step.go), end to end: after a traced execution, every
// span that carries sim_sec and cost_usd reports exactly what its phase —
// named by the span's phase and stage attributes — reports now, and every
// phase that took virtual time has such a span. It runs over the
// differential corpus, each hand operator and forced statement once and
// EXPLAIN ANALYZE of TPC-H Q3, and the runs between them reach the compute phases (local, hash join,
// bloom build intermediate) that once went unreported.

// q3SQL is TPC-H Q3 as the SQL front end runs it (internal/tpch's golden).
const q3SQL = "SELECT l_orderkey, SUM(l_extendedprice * (1 - l_discount)) AS revenue, o_orderdate, o_shippriority " +
	"FROM customer c JOIN orders o ON c.c_custkey = o.o_custkey JOIN lineitem l ON o.o_orderkey = l.l_orderkey " +
	"WHERE c.c_mktsegment = 'BUILDING' AND o.o_orderdate < '1995-03-15' AND l.l_shipdate > '1995-03-15' " +
	"GROUP BY l_orderkey, o_orderdate, o_shippriority ORDER BY revenue DESC, o_orderdate LIMIT 10"

type phaseKey struct {
	name  string
	stage int64
}

// stepSpans checks one traced execution and returns the names of the phases
// its spans report.
func stepSpans(t *testing.T, what string, e *engine.Exec, tr *obs.Trace) map[string]bool {
	t.Helper()
	phases := map[phaseKey]*cloudsim.Phase{}
	for _, ph := range e.Metrics.Phases() {
		phases[phaseKey{ph.Name, int64(ph.Stage)}] = ph
	}
	pricing := e.DB().Pricing
	reported := map[phaseKey]bool{}
	tr.Snapshot().Walk(func(sp *obs.SpanData, _ int) {
		sec, hasSec := sp.Float("sim_sec")
		usd, hasUSD := sp.Float("cost_usd")
		if !hasSec && !hasUSD {
			return
		}
		name, _ := sp.Str("phase")
		stage, _ := sp.Int("stage")
		k := phaseKey{name, stage}
		ph := phases[k]
		if ph == nil || !hasSec || !hasUSD {
			t.Errorf("%s: span %q reports sim_sec=%v cost_usd=%v for phase %q stage %d, which is not open", what, sp.Name, sec, usd, name, stage)
			return
		}
		reported[k] = true
		if want := ph.Seconds(); sec != want {
			t.Errorf("%s: span %q: sim_sec %v, its phase %q stage %d reads %v", what, sp.Name, sec, name, stage, want)
		}
		if want := ph.BilledCost(pricing).Total(); usd != want {
			t.Errorf("%s: span %q: cost_usd %v, its phase %q stage %d reads %v", what, sp.Name, usd, name, stage, want)
		}
	})
	names := map[string]bool{}
	for k, ph := range phases {
		if reported[k] {
			names[k.name] = true
		} else if ph.Seconds() > 0 {
			t.Errorf("%s: phase %q stage %d took %vs and no span reports it", what, k.name, k.stage, ph.Seconds())
		}
	}
	return names
}

// traced runs fn on a traced execution of db and checks it.
func traced(t *testing.T, db *engine.DB, what string, fn func(e *engine.Exec) error) map[string]bool {
	t.Helper()
	tr := obs.New(what, "query")
	e := db.NewExecContext(obs.WithTrace(context.Background(), tr))
	if err := fn(e); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	tr.Finish()
	return stepSpans(t, what, e, tr)
}

func TestStepSpansReportTheirPhases(t *testing.T) {
	ctx := context.Background()
	seen := map[string]bool{}
	merge := func(names map[string]bool) {
		for n := range names {
			seen[n] = true
		}
	}

	// The differential corpus, at unit scale and at deployment scale, where
	// the planner pushes more (Bloom joins, indexed and pushed tails).
	inproc := s3api.NewInProc(store.New())
	engine.DiffLoad(t, inproc)
	for _, sim := range []cloudsim.Scale{{}, {DataRatio: 1e5, PartRatio: 8}} {
		db, err := engine.Open(engine.DiffBucket, engine.WithBackend("inproc", inproc), engine.WithScale(sim))
		if err != nil {
			t.Fatal(err)
		}
		for _, sql := range engine.DiffSQL() {
			tr := obs.New("corpus", "query")
			_, e, err := db.QueryContext(obs.WithTrace(ctx, tr), sql)
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			tr.Finish()
			merge(stepSpans(t, sql, e, tr))
		}
	}

	// TPC-H: each hand operator and forced statement once, then EXPLAIN
	// ANALYZE of Q3.
	st := store.New()
	ds, err := tpch.LoadWithIndexes(ctx, st, tpch.Dataset{SF: 0.002, Seed: 42, Bucket: "tpch", Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	db, err := engine.Open(ds.Bucket, engine.WithBackend("s3sim", s3api.NewInProc(st)))
	if err != nil {
		t.Fatal(err)
	}
	for what, op := range handOperators {
		merge(traced(t, db, what, op))
	}
	for _, q := range forcedStatements {
		what := q.strategy + ": " + q.sql
		tr := obs.New(what, "query")
		_, e, err := db.QueryForced(obs.WithTrace(ctx, tr), q.sql, q.strategy)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		tr.Finish()
		merge(stepSpans(t, what, e, tr))
	}
	// Q3 as pinned (unit scale), and at deployment scale, where its second
	// join probes with a Bloom filter built over the intermediate.
	for _, sim := range []cloudsim.Scale{{}, {DataRatio: 1e5, PartRatio: 8}} {
		db.Sim = sim
		tr := obs.New("q3", "query")
		_, e, err := db.ExecStatement(obs.WithTrace(ctx, tr), "EXPLAIN ANALYZE "+q3SQL)
		if err != nil {
			t.Fatal(err)
		}
		tr.Finish()
		merge(stepSpans(t, "EXPLAIN ANALYZE Q3", e, tr))
	}

	for _, name := range []string{"local", "hash join", "bloom build intermediate"} {
		if !seen[name] {
			var got []string
			for n := range seen {
				got = append(got, n)
			}
			sort.Strings(got)
			t.Errorf("no run reported a %q phase on a span; reported: %q", name, got)
		}
	}
}
