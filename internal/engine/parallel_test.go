package engine

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"pushdowndb/internal/cloudsim"
)

// parallelTestRelation builds a relation with duplicate keys (top-K ties),
// repeated group values, floats (summation-order sensitivity) and NULLs.
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
			fmt.Sprint(rng.Intn(7)),     // group / join key
			fmt.Sprint(rng.Intn(5) * 5), // heavily tied sort key
			v,
		}
	}
	return FromStringsN([]string{"id", "g", "tie", "v"}, rows, 1)
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

// TestParallelOperatorsDeterministic pins what still runs on the worker
// pool against its sequential form: the vectorized kernels at 1, 2, 8 and
// 33 workers must reproduce the sequential reference byte for byte, and
// topKLocalN and FromStringsN must not depend on the worker count.
func TestParallelOperatorsDeterministic(t *testing.T) {
	rel := parallelTestRelation(1000)
	right := parallelTestRelation(400)
	pred, err := parsePredicate("v > 0 AND g <> 3")
	if err != nil {
		t.Fatal(err)
	}
	proj, err := parseItems("id, v * 2 AS dbl, g")
	if err != nil {
		t.Fatal(err)
	}
	keys, groupItems, err := parseGroupBy("g", "g, SUM(v) AS s, COUNT(*) AS n, MIN(v) AS mn, MAX(v) AS mx, AVG(v) AS av")
	if err != nil {
		t.Fatal(err)
	}
	aggItems, err := parseItems("SUM(v) AS s, COUNT(*) AS n")
	if err != nil {
		t.Fatal(err)
	}
	ops := map[string]func(Operators) (*Relation, error){
		"filter":    func(o Operators) (*Relation, error) { return o.Filter(rel, pred) },
		"project":   func(o Operators) (*Relation, error) { return o.Project(rel, proj) },
		"hashjoin":  func(o Operators) (*Relation, error) { return o.HashJoin(rel, right, "g", "g") },
		"groupby":   func(o Operators) (*Relation, error) { return o.GroupBy(rel, keys, groupItems) },
		"aggregate": func(o Operators) (*Relation, error) { return o.Aggregate(rel, aggItems) },
	}
	for name, op := range ops {
		ref, err := op(Operators{})
		if err != nil {
			t.Fatalf("%s reference: %v", name, err)
		}
		for _, workers := range []int{1, 2, 8, 33} {
			got, err := op(Operators{Vectorized: true, Workers: workers})
			if err != nil {
				t.Fatalf("%s@%d: %v", name, workers, err)
			}
			identicalRel(t, fmt.Sprintf("%s@%d", name, workers), ref, got)
		}
	}

	cells := make([][]string, len(rel.Rows))
	for i, r := range rel.Rows {
		for _, v := range r {
			cells[i] = append(cells[i], v.String())
		}
	}
	for _, workers := range []int{2, 3, 8, 33} {
		identicalRel(t, fmt.Sprintf("fromstrings@%d", workers),
			FromStringsN(rel.Cols, cells, 1), FromStringsN(rel.Cols, cells, workers))

		// The tie column exercises the (key, row index) total order: rows
		// at the K boundary share key values.
		for _, tc := range []struct {
			col string
			asc bool
		}{{"tie", true}, {"v", false}} {
			seq, err := topKLocalN(rel, tc.col, 17, tc.asc, 1)
			if err != nil {
				t.Fatal(err)
			}
			par, err := topKLocalN(rel, tc.col, 17, tc.asc, workers)
			if err != nil {
				t.Fatal(err)
			}
			identicalRel(t, fmt.Sprintf("topk %s@%d", tc.col, workers), seq, par)
		}
	}
}

// TestParallelQueriesDeterministic runs end-to-end SQL (and the explicit
// operator APIs) at workers=1 and workers=8 over the same store and
// demands byte-identical results.
func TestParallelQueriesDeterministic(t *testing.T) {
	db, _ := newTestDB(t)
	queries := []string{
		"SELECT g, SUM(v) AS total, COUNT(*) AS n FROM events GROUP BY g ORDER BY g",
		"SELECT k, v FROM events WHERE v > 10 ORDER BY v DESC LIMIT 20",
		"SELECT SUM(o.price) AS total, COUNT(*) AS n FROM cust c JOIN ords o ON c.ck = o.ck WHERE c.bal <= 0",
	}
	for _, sql := range queries {
		db.Cfg.Workers = 1
		db.InvalidateStats()
		seq, _, err := db.QueryContext(context.Background(), sql)
		if err != nil {
			t.Fatalf("%s @1: %v", sql, err)
		}
		db.Cfg.Workers = 8
		db.InvalidateStats()
		par, _, err := db.QueryContext(context.Background(), sql)
		if err != nil {
			t.Fatalf("%s @8: %v", sql, err)
		}
		identicalRel(t, sql, seq, par)
	}

	run := func(workers int) []*Relation {
		db.Cfg.Workers = workers
		var out []*Relation
		for name, f := range map[string]func(*Exec) (*Relation, error){
			"server-groupby": func(e *Exec) (*Relation, error) {
				return e.ServerSideGroupBy("events", "g", groupAggs(), "")
			},
			"hybrid-groupby": func(e *Exec) (*Relation, error) {
				return e.HybridGroupBy("events", "g", groupAggs(),
					HybridGroupByOptions{S3Groups: 4, SampleFraction: 0.05})
			},
			"server-topk": func(e *Exec) (*Relation, error) {
				return e.ServerSideTopK("events", "v", 25, false)
			},
			"sampling-topk": func(e *Exec) (*Relation, error) {
				return e.SamplingTopK("events", "v", 25, false, SamplingTopKOptions{SampleSize: 200})
			},
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
	db, _ := newTestDB(t)
	// Simulate a large deployment so parse and row work dominate the
	// request RTT floor.
	db.Sim = cloudsim.Scale{DataRatio: 10000, PartRatio: 1}
	run := func(workers int) (*Exec, *Relation) {
		db.Cfg.Workers = workers
		e := db.NewExec()
		rel, err := e.ServerSideGroupBy("events", "g", groupAggs(), "")
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
