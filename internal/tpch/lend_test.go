package tpch

import (
	"context"
	"fmt"
	"testing"

	"pushdowndb/internal/engine"
	"pushdowndb/internal/s3api"
	"pushdowndb/internal/selectengine"
	"pushdowndb/internal/store"
)

// poisoning is a lending backend that overwrites every lent body with '#'
// as soon as the sink it was lent to returns, as storage's next scan would
// overwrite its render buffer: an answer that still views a lent body reads
// the poison.
type poisoning struct{ s3api.Backend }

func (p poisoning) Lend(ctx context.Context, bucket, key string, req selectengine.Request, sink func(*selectengine.Result) error) error {
	return s3api.Lending(p.Backend).Lend(ctx, bucket, key, req, func(res *selectengine.Result) error {
		err := sink(res)
		if res.Lent() {
			for i := range res.Body {
				res.Body[i] = '#'
			}
		}
		return err
	})
}

// copying hides its backend's Lend: every response reaches the engine as
// Select's owned copy (s3api.Lending's adapter), which no later scan's
// reuse of storage's render buffer can reach.
type copying struct{ s3api.Backend }

// TestTPCHKeepsNoLentBody: every TPC-H statement answers under the poisoning
// backend what it answers over a copying one — the SQL set planned, the
// single-table statements forced onto each access path, two-table joins of
// every column forced onto each join algorithm, and the hand plans — so no
// answer views a response storage lent. So do the small readers of a
// response over text: SamplingTopK's sample, the hand group-bys (the
// S3-side one's SelectAgg, the hybrid one's sample of the table's
// statistics object), SelectAgg's MIN and MAX, and, over tables without
// statistics objects, the planner's remote probe.
func TestTPCHKeepsNoLentBody(t *testing.T) {
	ctx := context.Background()
	st, bare := store.New(), store.New()
	ds, err := LoadWithIndexes(ctx, st, Dataset{SF: 0.002, Seed: 42, Bucket: "tpch", Partitions: 4})
	if err == nil {
		_, err = LoadWithIndexes(ctx, bare, ds)
	}
	if err != nil {
		t.Fatal(err)
	}
	for _, table := range []string{"customer", "orders", "lineitem", "part"} {
		bare.Delete(ds.Bucket, engine.StatsKey(table))
	}
	open := func(b s3api.Backend) *engine.DB {
		db, err := engine.Open(ds.Bucket, engine.WithBackend("s3sim", b))
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	plain, poisoned := open(copying{s3api.NewInProc(st)}), open(poisoning{s3api.NewInProc(st)})
	plainBare, poisonedBare := open(copying{s3api.NewInProc(bare)}), open(poisoning{s3api.NewInProc(bare)})

	runs := map[string]func(db *engine.DB) (*engine.Relation, error){}
	for _, q := range goldenQueries {
		runs["planned "+q.name] = func(db *engine.DB) (*engine.Relation, error) {
			rel, _, err := db.QueryContext(ctx, q.sql)
			return rel, err
		}
	}
	single := map[string]string{"q1": q1SQL, "q6": q6SQL,
		"index": "SELECT l_orderkey, l_shipmode, l_comment FROM lineitem WHERE l_extendedprice <= 2500"}
	for name, sql := range single {
		for _, strategy := range []string{engine.StrategyBaseline, engine.StrategyFiltered, engine.StrategyIndexScan} {
			if strategy == engine.StrategyIndexScan && name != "index" {
				continue
			}
			runs[strategy+" "+name] = func(db *engine.DB) (*engine.Relation, error) {
				rel, _, err := db.QueryForced(ctx, sql, strategy)
				return rel, err
			}
		}
	}
	joins := map[string]string{
		"q14 join": "SELECT * FROM part p JOIN lineitem l ON p.p_partkey = l.l_partkey " +
			"WHERE l.l_shipdate >= '1995-09-01' AND l.l_shipdate < '1995-10-01'",
		"q19 join": "SELECT * FROM part p JOIN lineitem l ON p.p_partkey = l.l_partkey " +
			"WHERE p.p_brand = 'Brand#12' AND l.l_shipmode IN ('AIR', 'AIR REG')",
		"q3 join": "SELECT * FROM customer c JOIN orders o ON c.c_custkey = o.o_custkey " +
			"WHERE c.c_mktsegment = 'BUILDING' AND o.o_orderdate < '1995-03-15'",
	}
	for name, sql := range joins {
		for _, algorithm := range []string{engine.StrategyBaseline, engine.StrategyFiltered, engine.StrategyBloom} {
			runs[algorithm+" "+name] = func(db *engine.DB) (*engine.Relation, error) {
				return db.NewExecContext(ctx).Join(engine.JoinSpec{SQL: sql}, algorithm)
			}
		}
	}
	for _, q := range Queries() {
		for plan, run := range map[string]QueryFunc{"optimized": q.Optimized, "baseline": q.Baseline} {
			runs[plan+" "+q.Name] = func(db *engine.DB) (*engine.Relation, error) {
				rel, _, err := run(db)
				return rel, err
			}
		}
	}
	runs["SamplingTopK over text"] = func(db *engine.DB) (*engine.Relation, error) {
		return db.NewExecContext(ctx).SamplingTopK("SELECT l_orderkey, l_comment FROM lineitem ORDER BY l_comment DESC LIMIT 5", 200)
	}
	const grouped = "SELECT l_shipmode, SUM(l_quantity) AS q, COUNT(*) AS n FROM lineitem GROUP BY l_shipmode"
	runs["S3SideGroupBy"] = func(db *engine.DB) (*engine.Relation, error) { return db.NewExecContext(ctx).S3SideGroupBy(grouped) }
	runs["HybridGroupBy"] = func(db *engine.DB) (*engine.Relation, error) {
		return db.NewExecContext(ctx).HybridGroupBy(grouped, engine.HybridGroupByOptions{S3Groups: 3})
	}
	runs["SelectAgg over text"] = func(db *engine.DB) (*engine.Relation, error) {
		e := db.NewExecContext(ctx)
		row, err := e.SelectAgg("agg", e.NextStage(), "lineitem", "SELECT MIN(l_comment), MAX(l_shipinstruct), COUNT(*) FROM S3Object")
		return &engine.Relation{Cols: []string{"lo", "hi", "n"}, Rows: []engine.Row{row}}, err
	}
	dbs := map[string][2]*engine.DB{}
	for name := range runs {
		dbs[name] = [2]*engine.DB{plain, poisoned}
	}
	for _, q := range goldenQueries {
		runs["no statistics object, planned "+q.name] = runs["planned "+q.name]
		dbs["no statistics object, planned "+q.name] = [2]*engine.DB{plainBare, poisonedBare}
	}
	for name, run := range runs {
		want, wantErr := run(dbs[name][0])
		got, err := run(dbs[name][1])
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Errorf("%s: poisoned %v, plain %v", name, err, wantErr)
			continue
		}
		if err == nil && renderGolden(got) != renderGolden(want) {
			t.Errorf("%s: poisoned lent bodies changed the answer:\n%s\nwant\n%s", name, renderGolden(got), renderGolden(want))
		}
		if err == nil && len(want.Rows) == 0 {
			t.Errorf("%s: no rows to compare", name)
		}
	}
}
