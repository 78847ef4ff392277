package engine

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"pushdowndb/internal/cloudsim"
	"pushdowndb/internal/s3api"
	"pushdowndb/internal/store"
)

// parallelTestRelation builds a relation with repeated group and join
// keys, floats (summation-order sensitivity) and NULLs.
func parallelTestRelation(n int) *Relation {
	rng := rand.New(rand.NewSource(7))
	rows := make([][]string, n)
	for i := range rows {
		v := fmt.Sprintf("%.3f", rng.Float64()*100-50)
		if i%97 == 0 {
			v = "" // NULL
		}
		rows[i] = []string{
			fmt.Sprint(i),
			fmt.Sprint(rng.Intn(7)), // group / join key
			v,
		}
	}
	return relOf([]string{"id", "g", "v"}, rows)
}

// identicalRel fails unless a and b are byte-identical (columns, row order
// and rendered values all equal).
func identicalRel(t *testing.T, name string, a, b *Relation) {
	t.Helper()
	if !reflect.DeepEqual(a.Cols, b.Cols) {
		t.Fatalf("%s: cols %v vs %v", name, a.Cols, b.Cols)
	}
	if a.String() != b.String() {
		t.Fatalf("%s: relations differ:\n%s\nvs\n%s", name, a.String(), b.String())
	}
	if !reflect.DeepEqual(a.Rows, b.Rows) {
		t.Fatalf("%s: rows differ beyond rendering", name)
	}
}

// TestParallelOperatorsDeterministic pins every operator over worker spans
// against its one-span form: at 1, 2, 8 and 33 workers each must reproduce
// the one span byte for byte.
func TestParallelOperatorsDeterministic(t *testing.T) {
	rel := parallelTestRelation(1000)
	right := parallelTestRelation(400)
	proj := selectOf(t, "SELECT id, v * 2 AS dbl, g FROM t WHERE v > 0 AND g <> 3")
	grouped := selectOf(t, "SELECT g, SUM(v) AS s, COUNT(*) AS n, MIN(v) AS mn, MAX(v) AS mx, AVG(v) AS av FROM t GROUP BY g")
	agg := selectOf(t, "SELECT SUM(v) AS s, COUNT(*) AS n FROM t")
	ops := map[string]func(Operators) (*Relation, error){
		"filter":    func(o Operators) (*Relation, error) { return o.Filter(rel, proj.Where) },
		"project":   func(o Operators) (*Relation, error) { return o.Project(rel, proj.Items) },
		"hashjoin":  func(o Operators) (*Relation, error) { return o.HashJoin(rel, right, "g", "g") },
		"groupby":   func(o Operators) (*Relation, error) { return o.GroupBy(rel, grouped.GroupBy, grouped.Items) },
		"aggregate": func(o Operators) (*Relation, error) { return o.GroupBy(rel, nil, agg.Items) },
	}
	for name, op := range ops {
		ref, err := op(Operators{})
		if err != nil {
			t.Fatalf("%s reference: %v", name, err)
		}
		for _, workers := range []int{1, 2, 8, 33} {
			got, err := op(Operators{Workers: workers})
			if err != nil {
				t.Fatalf("%s@%d: %v", name, workers, err)
			}
			identicalRel(t, fmt.Sprintf("%s@%d", name, workers), ref, got)
		}
	}
}

// openWithWorkers opens a DB over st with a worker budget of workers.
func openWithWorkers(t *testing.T, st *store.Store, workers int, opts ...Option) *DB {
	t.Helper()
	db, err := Open(testBucket, append([]Option{WithBackend("s3sim", s3api.NewInProc(st)), WithWorkers(workers)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestParallelQueriesDeterministic runs end-to-end SQL (and the explicit
// operator APIs) at workers=1 and workers=8 over the same store and
// demands byte-identical results.
func TestParallelQueriesDeterministic(t *testing.T) {
	st := newTestStore(t)
	queries := []string{
		"SELECT g, SUM(v) AS total, COUNT(*) AS n FROM events GROUP BY g ORDER BY g",
		"SELECT k, v FROM events WHERE v > 10 ORDER BY v DESC LIMIT 20",
		"SELECT SUM(o.price) AS total, COUNT(*) AS n FROM cust c JOIN ords o ON c.ck = o.ck WHERE c.bal <= 0",
	}
	for _, sql := range queries {
		seq, _, err := openWithWorkers(t, st, 1).QueryContext(context.Background(), sql)
		if err != nil {
			t.Fatalf("%s @1: %v", sql, err)
		}
		par, _, err := openWithWorkers(t, st, 8).QueryContext(context.Background(), sql)
		if err != nil {
			t.Fatalf("%s @8: %v", sql, err)
		}
		identicalRel(t, sql, seq, par)
	}

	const topKSQL = "SELECT * FROM events ORDER BY v DESC LIMIT 25"
	run := func(workers int) []*Relation {
		db := openWithWorkers(t, st, workers)
		var out []*Relation
		for name, f := range map[string]func(*Exec) (*Relation, error){
			"server-groupby": func(*Exec) (*Relation, error) {
				rel, _, err := db.QueryForced(context.Background(), groupSQL("events", "g"), StrategyBaseline)
				return rel, err
			},
			"hybrid-groupby": func(e *Exec) (*Relation, error) {
				return e.HybridGroupBy(groupSQL("events", "g"), HybridGroupByOptions{S3Groups: 4})
			},
			"server-topk": func(*Exec) (*Relation, error) {
				rel, _, err := db.QueryForced(context.Background(), topKSQL, StrategyBaseline)
				return rel, err
			},
			"sampling-topk": func(e *Exec) (*Relation, error) { return e.SamplingTopK(topKSQL, 200) },
		} {
			rel, err := f(db.NewExec())
			if err != nil {
				t.Fatalf("%s @%d: %v", name, workers, err)
			}
			out = append(out, rel)
		}
		return out
	}
	// Map iteration order is random; normalize by comparing sorted sets of
	// rendered relations.
	norm := func(rels []*Relation) map[string]bool {
		m := map[string]bool{}
		for _, r := range rels {
			m[r.String()] = true
		}
		return m
	}
	if got, want := norm(run(8)), norm(run(1)); !reflect.DeepEqual(got, want) {
		t.Fatalf("operator APIs differ between workers=1 and workers=8:\n%v\nvs\n%v", got, want)
	}
}

// TestWorkerBudgetShrinksRuntime: the same query gets faster on the
// virtual clock as the worker budget grows (server row work and load
// parsing divide across workers), while byte counters stay identical.
func TestWorkerBudgetShrinksRuntime(t *testing.T) {
	st := newTestStore(t)
	run := func(workers int) (*Exec, *Relation) {
		// Simulate a large deployment so parse and row work dominate the
		// request RTT floor.
		db := openWithWorkers(t, st, workers, WithScale(cloudsim.Scale{DataRatio: 10000, PartRatio: 1}))
		rel, e, err := db.QueryForced(context.Background(), groupSQL("events", "g"), StrategyBaseline)
		if err != nil {
			t.Fatal(err)
		}
		return e, rel
	}
	e1, r1 := run(1)
	e8, r8 := run(8)
	identicalRel(t, "groupby", r1, r8)
	if e8.RuntimeSeconds() >= e1.RuntimeSeconds() {
		t.Errorf("8 workers (%.6fs) should beat 1 worker (%.6fs)",
			e8.RuntimeSeconds(), e1.RuntimeSeconds())
	}
	req1, scan1, ret1, get1 := e1.Metrics.Totals()
	req8, scan8, ret8, get8 := e8.Metrics.Totals()
	if req1 != req8 || scan1 != scan8 || ret1 != ret8 || get1 != get8 {
		t.Error("worker budget must not change request or byte accounting")
	}
}
