package tpch

import (
	"context"

	"pushdowndb/internal/engine"
	"pushdowndb/internal/sqlparse"
)

// QueryFunc executes one query against a DB and returns the result plus
// the execution context carrying the virtual clock and cost.
type QueryFunc func(db *engine.DB) (*engine.Relation, *engine.Exec, error)

// Query pairs the baseline (no S3 Select) and optimized (pushdown)
// implementations of one TPC-H query, as compared in Fig. 10. The
// optimized form is the statement PushdownDB plans, except for Q17, whose
// correlated subquery the SQL front end cannot express.
type Query struct {
	Name      string
	Baseline  QueryFunc
	Optimized QueryFunc
}

// Queries returns the paper's TPC-H subset: Q1, Q3, Q6, Q14, Q17, Q19.
func Queries() []Query {
	return []Query{
		{Name: "Q1", Baseline: Q1Baseline, Optimized: planned(q1SQL)},
		{Name: "Q3", Baseline: Q3Baseline, Optimized: planned(q3SQL)},
		{Name: "Q6", Baseline: Q6Baseline, Optimized: planned(q6SQL)},
		{Name: "Q14", Baseline: Q14Baseline, Optimized: planned(q14SQL)},
		{Name: "Q17", Baseline: Q17Baseline, Optimized: Q17Optimized},
		{Name: "Q19", Baseline: Q19Baseline, Optimized: planned(q19SQL)},
	}
}

// The Baselines load each table keeping only the rows its own filter passes
// (engine.Load's Where) — Q1 and Q6 grouping them as they decode, too
// (engine.Load's Items), and the joins' probe sides probing the table
// loaded before them (engine.Load's Build), so a join's probe side is never
// a relation — and run the server's operators over one span
// (engine.Operators{}) over the rest of what each statement, and Q17's and
// Q19's extra fragments, parse to: once per process, here.
var (
	q1, q3    = must(sqlparse.Parse(q1SQL)), must(sqlparse.Parse(q3SQL))
	q6, q14   = must(sqlparse.Parse(q6SQL)), must(sqlparse.Parse(q14SQL))
	q3Filters = sqlparse.Conjuncts(q3.Where) // customer's, orders', lineitem's
	q17Part   = must(sqlparse.ParseExpr(q17PartFilter))
	q17Avg    = must(sqlparse.Parse("SELECT p_partkey AS avg_key, AVG(l_quantity) AS avg_qty FROM lineitem GROUP BY p_partkey"))
	q17Small  = must(sqlparse.Parse("SELECT SUM(l_extendedprice) / 7.0 AS avg_yearly FROM lineitem WHERE l_quantity < 0.2 * avg_qty"))
	q19Line   = must(sqlparse.ParseExpr(q19LineFilter))
	q19Part   = must(sqlparse.ParseExpr(q19PartFilter))
	q19Match  = must(sqlparse.Parse("SELECT " + q19Items + " FROM lineitem WHERE " + q19Residual))
)

func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// local is the one-span operator set every Baseline runs.
var local engine.Operators

// planned runs sql through the planner: what is pushed to S3, and how each
// join runs, is PushdownDB's choice.
func planned(sql string) QueryFunc {
	return func(db *engine.DB) (*engine.Relation, *engine.Exec, error) {
		//lint:ignore ctxflow QueryFunc is context-free, as NewExec is; the root context is born here
		return db.QueryContext(context.Background(), sql)
	}
}

// loadChain loads each of loads in stage, one after another, each after the
// first probing the relation the one before it answered (engine.Load's
// Build), and answers the last.
func loadChain(e *engine.Exec, stage int, loads ...engine.Load) (*engine.Relation, error) {
	var rel *engine.Relation
	for i, l := range loads {
		if i > 0 {
			l.Build = rel
		}
		rels, err := e.LoadTables(stage, l)
		if err != nil {
			return nil, err
		}
		rel = rels[0]
	}
	return rel, nil
}

// --- Q1: pricing summary report ---

const q1SQL = `SELECT l_returnflag, l_linestatus,
	SUM(l_quantity) AS sum_qty,
	SUM(l_extendedprice) AS sum_base_price,
	SUM(l_extendedprice * (1 - l_discount)) AS sum_disc_price,
	SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)) AS sum_charge,
	AVG(l_quantity) AS avg_qty,
	AVG(l_extendedprice) AS avg_price,
	AVG(l_discount) AS avg_disc,
	COUNT(*) AS count_order
	FROM lineitem WHERE l_shipdate <= '1998-09-02'` + // 1998-12-01 minus 90 days
	" GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus"

// Q1Baseline GETs lineitem in full and, as each partition decodes, groups
// the rows its WHERE keeps into that partition's block (engine.Load's
// Items), typing only the seven columns it reads; the blocks merge into the
// four groups, which sort locally. No lineitem relation is built.
func Q1Baseline(db *engine.DB) (*engine.Relation, *engine.Exec, error) {
	e := db.NewExec()
	rels, err := e.LoadTables(e.NextStage(), engine.Load{Table: "lineitem", Where: q1.Where, GroupBy: q1.GroupBy, Items: q1.Items,
		Cols: []string{"l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount", "l_tax", "l_shipdate"}})
	if err != nil {
		return nil, e, err
	}
	out, err := engine.SortLocal(rels[0], q1.OrderBy)
	return out, e, err
}

// --- Q3: shipping priority ---

const q3SQL = "SELECT l_orderkey, o_orderdate, o_shippriority, SUM(l_extendedprice * (1 - l_discount)) AS revenue" +
	" FROM customer JOIN orders ON c_custkey = o_custkey JOIN lineitem ON o_orderkey = l_orderkey" +
	" WHERE c_mktsegment = 'BUILDING' AND o_orderdate < '1995-03-15' AND l_shipdate > '1995-03-15'" +
	" GROUP BY l_orderkey, o_orderdate, o_shippriority ORDER BY revenue DESC, o_orderdate LIMIT 10"

// Q3Baseline GETs customer, orders and lineitem in full, one after another
// in one stage, types the columns it reads of the rows each table's filter
// keeps, and joins each kept orders row to customer and each kept lineitem
// row to that join as they decode, grouping the joined rows as they join;
// the top-10 runs locally.
func Q3Baseline(db *engine.DB) (*engine.Relation, *engine.Exec, error) {
	e := db.NewExec()
	out, err := loadChain(e, e.NextStage(),
		engine.Load{Table: "customer", Cols: []string{"c_custkey", "c_mktsegment"}, Where: q3Filters[0]},
		engine.Load{Table: "orders", Cols: []string{"o_orderkey", "o_custkey", "o_orderdate", "o_shippriority"}, Where: q3Filters[1],
			BuildKey: "c_custkey", ProbeKey: "o_custkey"},
		engine.Load{Table: "lineitem", Cols: []string{"l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"}, Where: q3Filters[2],
			BuildKey: "o_orderkey", ProbeKey: "l_orderkey", GroupBy: q3.GroupBy, Items: q3.Items})
	if err != nil {
		return nil, e, err
	}
	if out, err = engine.SortLocal(out, q3.OrderBy); err != nil {
		return nil, e, err
	}
	return engine.LimitLocal(out, int(q3.Limit)), e, nil
}

// --- Q6: forecasting revenue change ---

const q6SQL = "SELECT SUM(l_extendedprice * l_discount) AS revenue FROM lineitem" +
	" WHERE l_shipdate >= '1994-01-01' AND l_shipdate < '1995-01-01' AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24"

// Q6Baseline GETs lineitem in full and aggregates the rows its WHERE passes
// as each partition decodes, into that partition's block (engine.Load's
// Items); the blocks merge into the one row.
func Q6Baseline(db *engine.DB) (*engine.Relation, *engine.Exec, error) {
	e := db.NewExec()
	rels, err := e.LoadTables(e.NextStage(), engine.Load{Table: "lineitem", Where: q6.Where, Items: q6.Items,
		Cols: []string{"l_shipdate", "l_discount", "l_quantity", "l_extendedprice"}})
	if err != nil {
		return nil, e, err
	}
	return rels[0], e, nil
}

// --- Q14: promotion effect ---

const q14SQL = "SELECT 100.0 * SUM(CASE WHEN p_type LIKE 'PROMO%' THEN l_extendedprice * (1 - l_discount) ELSE 0 END)" +
	" / SUM(l_extendedprice * (1 - l_discount)) AS promo_revenue" +
	" FROM lineitem JOIN part ON l_partkey = p_partkey WHERE l_shipdate >= '1995-09-01' AND l_shipdate < '1995-10-01'"

// Q14Baseline GETs lineitem and part in full, one after the other in one
// stage, keeps the lineitem rows its WHERE passes as they decode, joins
// each part row to them as it decodes, and aggregates the joined rows as
// they join.
func Q14Baseline(db *engine.DB) (*engine.Relation, *engine.Exec, error) {
	e := db.NewExec()
	out, err := loadChain(e, e.NextStage(),
		engine.Load{Table: "lineitem", Cols: []string{"l_partkey", "l_extendedprice", "l_discount", "l_shipdate"}, Where: q14.Where},
		engine.Load{Table: "part", Cols: []string{"p_partkey", "p_type"}, BuildKey: "l_partkey", ProbeKey: "p_partkey", Items: q14.Items})
	return out, e, err
}

// --- Q17: small-quantity-order revenue ---

const q17PartFilter = "p_brand = 'Brand#23' AND p_container = 'MED BOX'"

// Q17Baseline GETs part and lineitem in full, one after the other in one
// stage, keeps the part rows its filter passes as they decode, joins each
// lineitem row to them as it decodes, typing the rest of a row only when it
// joins, and computes the correlated average locally.
func Q17Baseline(db *engine.DB) (*engine.Relation, *engine.Exec, error) {
	e := db.NewExec()
	joined, err := loadChain(e, e.NextStage(),
		engine.Load{Table: "part", Cols: []string{"p_partkey", "p_brand", "p_container"}, Where: q17Part},
		engine.Load{Table: "lineitem", Cols: []string{"l_partkey", "l_quantity", "l_extendedprice"}, BuildKey: "p_partkey", ProbeKey: "l_partkey"})
	if err != nil {
		return nil, e, err
	}
	out, err := q17Finish(joined)
	return out, e, err
}

// Q17Optimized pushes the part filter, then Bloom-filters the (huge)
// lineitem scan down to the matching part keys.
func Q17Optimized(db *engine.DB) (*engine.Relation, *engine.Exec, error) {
	e := db.NewExec()
	part, err := e.SelectRows("q17 part scan", e.NextStage(), "part",
		"SELECT p_partkey FROM S3Object WHERE "+q17PartFilter)
	if err != nil {
		return nil, e, err
	}
	line, _, err := e.BloomProbe(part, "p_partkey", "SELECT l_partkey, l_quantity, l_extendedprice FROM lineitem", "l_partkey",
		0.01, false, 17)
	if err != nil {
		return nil, e, err
	}
	joined, err := local.HashJoin(part, line, "p_partkey", "l_partkey")
	if err != nil {
		return nil, e, err
	}
	out, err := q17Finish(joined)
	return out, e, err
}

// q17Finish computes Q17's correlated average over part joined to lineitem.
func q17Finish(joined *engine.Relation) (*engine.Relation, error) {
	avg, err := local.GroupBy(joined, q17Avg.GroupBy, q17Avg.Items)
	if err != nil {
		return nil, err
	}
	withAvg, err := local.HashJoin(joined, avg, "p_partkey", "avg_key")
	if err != nil {
		return nil, err
	}
	small, err := local.Filter(withAvg, q17Small.Where)
	if err != nil {
		return nil, err
	}
	return local.GroupBy(small, nil, q17Small.Items)
}

// --- Q19: discounted revenue ---

const (
	q19LineFilter = "l_shipmode IN ('AIR', 'AIR REG') AND l_shipinstruct = 'DELIVER IN PERSON'" +
		" AND l_quantity BETWEEN 1 AND 30"
	q19PartFilter = "(p_brand = 'Brand#12' AND p_container IN ('SM CASE', 'SM BOX', 'SM PACK', 'SM PKG') AND p_size BETWEEN 1 AND 5)" +
		" OR (p_brand = 'Brand#23' AND p_container IN ('MED BAG', 'MED BOX', 'MED PKG', 'MED PACK') AND p_size BETWEEN 1 AND 10)" +
		" OR (p_brand = 'Brand#34' AND p_container IN ('LG CASE', 'LG BOX', 'LG PACK', 'LG PKG') AND p_size BETWEEN 1 AND 15)"
	q19Residual = "(p_brand = 'Brand#12' AND l_quantity BETWEEN 1 AND 11)" +
		" OR (p_brand = 'Brand#23' AND l_quantity BETWEEN 10 AND 20)" +
		" OR (p_brand = 'Brand#34' AND l_quantity BETWEEN 20 AND 30)"
	q19Items = "SUM(l_extendedprice * (1 - l_discount)) AS revenue"

	// q19SQL is the whole predicate as TPC-H writes it: each OR branch
	// carries its brand's part filter and quantity range.
	q19SQL = "SELECT " + q19Items + " FROM lineitem JOIN part ON l_partkey = p_partkey WHERE " + q19LineFilter +
		" AND ((p_brand = 'Brand#12' AND p_container IN ('SM CASE', 'SM BOX', 'SM PACK', 'SM PKG') AND p_size BETWEEN 1 AND 5 AND l_quantity BETWEEN 1 AND 11)" +
		" OR (p_brand = 'Brand#23' AND p_container IN ('MED BAG', 'MED BOX', 'MED PKG', 'MED PACK') AND p_size BETWEEN 1 AND 10 AND l_quantity BETWEEN 10 AND 20)" +
		" OR (p_brand = 'Brand#34' AND p_container IN ('LG CASE', 'LG BOX', 'LG PACK', 'LG PKG') AND p_size BETWEEN 1 AND 15 AND l_quantity BETWEEN 20 AND 30))"
)

// Q19Baseline GETs both tables in full, part then lineitem in one stage,
// keeps the rows each table's own conjuncts pass as they decode, joins each
// kept lineitem row to part as it decodes, and evaluates the rest of the
// disjunctive predicate over each joined row and aggregates the rows it
// passes as they join.
func Q19Baseline(db *engine.DB) (*engine.Relation, *engine.Exec, error) {
	e := db.NewExec()
	out, err := loadChain(e, e.NextStage(),
		engine.Load{Table: "part", Where: q19Part, Cols: []string{"p_partkey", "p_brand", "p_container", "p_size"}},
		engine.Load{Table: "lineitem", Where: q19Line, BuildKey: "p_partkey", ProbeKey: "l_partkey", Cols: []string{
			"l_partkey", "l_quantity", "l_extendedprice", "l_discount", "l_shipmode", "l_shipinstruct"},
			Residual: q19Match.Where, Items: q19Match.Items})
	return out, e, err
}
