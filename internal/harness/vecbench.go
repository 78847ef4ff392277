package harness

import (
	"pushdowndb/internal/engine"
	"pushdowndb/internal/sqlparse"
)

// The local operator benchmark fixture: one fixture and one case list that
// bench/ times (vec.filter/groupby/join_mrows_per_s). The cases run the
// engine's operators over parsed input, exactly as query execution does,
// over a materialized TPC-H lineitem/part, so the measured cost is local
// execution, not scan or decode.

// VecBenchFixture holds the materialized relations the cases run over.
// Workers is inert: each operator is one loop over its rows. It stays only
// because bench/ sets it; ROADMAP direction 1(a) deletes it.
type VecBenchFixture struct {
	Lineitem *engine.Relation
	Part     *engine.Relation
	Workers  int
}

// VecBenchCase is one operator: Run executes it once over the fixture and
// reports the output row count (a cheap checksum). Its bool argument is
// inert, kept only because bench/ passes it; ROADMAP direction 1(a)
// deletes it.
type VecBenchCase struct {
	Name string
	Run  func(f *VecBenchFixture, spans bool) (int, error)
}

// vecBenchSQL carries the cases' parsed input: a Q6-shaped filter (a date
// range plus a numeric bound, the selection shape Fig. 1 sweeps) and a
// Q1-shaped aggregation over the two flag columns, whose SUM over the
// integer quantity column exercises the exact accumulator on its cheap path.
const vecBenchSQL = "SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty, COUNT(*) AS count_order " +
	"FROM lineitem WHERE l_shipdate >= '1994-01-01' AND l_shipdate < '1995-01-01' AND l_quantity < 24 " +
	"GROUP BY l_returnflag, l_linestatus"

// VecBenchCases is the benchmark case list: filter, group-by and hash join.
func VecBenchCases() []VecBenchCase {
	sel, err := sqlparse.Parse(vecBenchSQL)
	if err != nil {
		panic(err) // a constant: only a bug can break it
	}
	run := func(op func(f *VecBenchFixture) (*engine.Relation, error)) func(*VecBenchFixture, bool) (int, error) {
		return func(f *VecBenchFixture, _ bool) (int, error) {
			out, err := op(f)
			if err != nil {
				return 0, err
			}
			return len(out.Rows), nil
		}
	}
	return []VecBenchCase{
		{Name: "filter", Run: run(func(f *VecBenchFixture) (*engine.Relation, error) {
			return engine.Filter(f.Lineitem, sel.Where)
		})},
		{Name: "groupby", Run: run(func(f *VecBenchFixture) (*engine.Relation, error) {
			return engine.GroupBy(f.Lineitem, sel.GroupBy, sel.Items)
		})},
		{Name: "join", Run: run(func(f *VecBenchFixture) (*engine.Relation, error) {
			return engine.HashJoin(f.Part, f.Lineitem, "p_partkey", "l_partkey")
		})},
	}
}
