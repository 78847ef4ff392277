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

// TestTPCHKeepsNoLentBody: every TPC-H statement answers under the poisoning
// backend what it answers over the plain one — the SQL set planned, the
// single-table statements forced onto each access path, two-table joins of
// every column forced onto each join algorithm, and the hand plans — so no
// answer views a response storage lent.
func TestTPCHKeepsNoLentBody(t *testing.T) {
	ctx := context.Background()
	st := store.New()
	ds, err := LoadWithIndexes(ctx, st, Dataset{SF: 0.002, Seed: 42, Bucket: "tpch", Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	open := func(b s3api.Backend) *engine.DB {
		db, err := engine.Open(ds.Bucket, engine.WithBackend("s3sim", b))
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	plain, poisoned := open(s3api.NewInProc(st)), open(poisoning{s3api.NewInProc(st)})

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
	for name, run := range runs {
		want, wantErr := run(plain)
		got, err := run(poisoned)
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
