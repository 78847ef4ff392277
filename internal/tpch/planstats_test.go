package tpch

import (
	"context"
	"os"
	"strings"
	"testing"

	"pushdowndb/internal/cloudsim"
	"pushdowndb/internal/engine"
	"pushdowndb/internal/s3api"
	"pushdowndb/internal/store"
)

// Planning from statistics objects, on TPC-H: the join statements of the
// golden set (Q3, Q14, Q19) over the tables every loader writes.

var joinQueries = func() (out []struct{ name, sql string }) {
	for _, q := range goldenQueries {
		if strings.Contains(q.sql, " JOIN ") {
			out = append(out, q)
		}
	}
	return out
}()

var tpchTables = []string{"customer", "orders", "lineitem", "part"}

// dropStats deletes the statistics objects of the TPC-H tables (and their
// columnar twins), leaving the planner the header GET and the remote probe.
func dropStats(st *store.Store, bucket string) {
	for _, table := range tpchTables {
		st.Delete(bucket, engine.StatsKey(table))
		st.Delete(bucket, engine.StatsKey(table+"_col"))
	}
}

// TestGoldenJoinsOverColumnar: SQL joins over colformat tables — which
// failed while the planner could learn a table's columns only from a header
// GET — return the CSV goldens' answers.
func TestGoldenJoinsOverColumnar(t *testing.T) {
	st := store.New()
	ds, err := LoadColumnar(st, Dataset{SF: 0.002, Seed: 42, Bucket: "tpch", Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	db, err := engine.Open(ds.Bucket, engine.WithBackend("s3sim", s3api.NewInProc(st)))
	if err != nil {
		t.Fatal(err)
	}
	toCol := strings.NewReplacer("customer c", "customer_col c", "orders o", "orders_col o",
		"lineitem l", "lineitem_col l", "part p", "part_col p")
	for _, q := range joinQueries {
		rel, e, err := db.QueryContext(context.Background(), toCol.Replace(q.sql))
		if err != nil {
			t.Fatalf("%s over colformat tables: %v", q.name, err)
		}
		want, err := os.ReadFile(goldenPath(q.name))
		if err != nil {
			t.Fatal(err)
		}
		if got := renderGolden(rel); got != string(want) {
			t.Errorf("%s over colformat tables\ngot:\n%s\nwant:\n%s", q.name, got, want)
		}
		for _, sc := range e.QueryPlan().Scans {
			if !sc.Stats.Columnar || sc.StatsSource == engine.StatsFromProbe {
				t.Errorf("%s scan %s: Columnar %v from %q", q.name, sc.Table, sc.Stats.Columnar, sc.StatsSource)
			}
		}
	}
	// Without the objects the tables are still too large for the header
	// probe; the failure is a kinded bad request that quotes no bytes.
	dropStats(st, ds.Bucket)
	db.InvalidateStats()
	_, _, err = db.QueryContext(context.Background(), toCol.Replace(joinQueries[1].sql))
	if s3api.KindOf(err) != s3api.KindBadRequest || strings.ContainsFunc(err.Error(), func(r rune) bool { return r < ' ' || r > '~' }) {
		t.Errorf("colformat join without statistics objects: %q, want a printable bad_request", err)
	}
}

// TestFirstJoinEstimateDirection: the first join's output estimate holds
// whichever side builds. Q14 and Q19 build on lineitem, the foreign-key
// side, which the old probe.FilteredRows × build.Selectivity() got wrong by
// 30x.
func TestFirstJoinEstimateDirection(t *testing.T) {
	db := testDB(t, 0.01)
	for _, q := range joinQueries {
		_, e, err := db.QueryContext(context.Background(), q.sql)
		if err != nil {
			t.Fatal(err)
		}
		st := e.QueryPlan().Steps[0]
		if est, act := max(st.EstRows, 1), max(st.ActualRows, 1); est > 2*act || act > 2*est {
			t.Errorf("%s join 1 (%s builds): estimated %d rows, actual %d", q.name, st.BuildName, st.EstRows, st.ActualRows)
		}
	}
}

// TestSampledEstimatesWithinTwofold is the estimate-quality check's sampled
// half: at SF 0.01 every pushed filter of the join statements that keeps at
// least 1 % of its table is estimated within 2x of the probe's exact count,
// the exact statistics are equal, and no join step changes strategy.
func TestSampledEstimatesWithinTwofold(t *testing.T) {
	st := store.New()
	ds, err := Load(context.Background(), st, Dataset{SF: 0.01, Seed: 42, Bucket: "tpch", Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	paper := engine.WithScale(cloudsim.Scale{DataRatio: 1000, PartRatio: 8})
	open := func() *engine.DB {
		db, err := engine.Open(ds.Bucket, engine.WithBackend("s3sim", s3api.NewInProc(st)), paper)
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	var sampled []*engine.QueryPlan
	db := open()
	for _, q := range joinQueries {
		_, e, err := db.ExecStatement(context.Background(), "EXPLAIN "+q.sql)
		if err != nil {
			t.Fatal(err)
		}
		sampled = append(sampled, e.QueryPlan())
		// The cost-model check: planning from statistics objects is a
		// hundredth of a second at paper scale, not a table scan.
		if sec := e.RuntimeSeconds(); sec <= 0 || sec >= 0.02 {
			t.Errorf("%s: planning took %.4fs at paper scale, want under 0.02s", q.name, sec)
		}
	}
	dropStats(st, ds.Bucket)
	db = open()
	for i, q := range joinQueries {
		_, e, err := db.ExecStatement(context.Background(), "EXPLAIN "+q.sql)
		if err != nil {
			t.Fatal(err)
		}
		exact := e.QueryPlan()
		for j, sc := range sampled[i].Scans {
			ex := exact.Scans[j]
			got, want := sc.Stats, ex.Stats
			if sc.StatsSource == engine.StatsFromProbe || ex.StatsSource == engine.StatsFromObject {
				t.Errorf("%s scan %s: sources %q and %q", q.name, sc.Table, sc.StatsSource, ex.StatsSource)
			}
			if got.Rows != want.Rows || got.Bytes != want.Bytes || got.Partitions != want.Partitions || got.Columnar != want.Columnar {
				t.Errorf("%s scan %s: exact statistics differ: %+v from the object, %+v from the probe", q.name, sc.Table, got, want)
			}
			if want.Rows <= 2048 && got.FilteredRows != want.FilteredRows {
				t.Errorf("%s scan %s: a table sampled whole estimated %d rows, the probe counted %d", q.name, sc.Table, got.FilteredRows, want.FilteredRows)
			}
			if 100*want.FilteredRows >= want.Rows && (got.FilteredRows > 2*want.FilteredRows || want.FilteredRows > 2*got.FilteredRows) {
				t.Errorf("%s scan %s: estimated %d rows after filter, the probe counted %d", q.name, sc.Table, got.FilteredRows, want.FilteredRows)
			}
		}
		for j, step := range sampled[i].Steps {
			if step.Strategy != exact.Steps[j].Strategy {
				t.Errorf("%s join %d: %s from sampled statistics, %s from exact ones", q.name, j+1, step.Strategy, exact.Steps[j].Strategy)
			}
		}
	}
}
