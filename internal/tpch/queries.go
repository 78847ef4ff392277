package tpch

import (
	"fmt"

	"pushdowndb/internal/engine"
	"pushdowndb/internal/sqlparse"
	"pushdowndb/internal/value"
)

// QueryFunc executes one query against a DB and returns the result plus
// the execution context carrying the virtual clock and cost.
type QueryFunc func(db *engine.DB) (*engine.Relation, *engine.Exec, error)

// Query pairs the baseline (no S3 Select) and optimized (pushdown)
// implementations of one TPC-H query, as compared in Fig. 10.
type Query struct {
	Name      string
	Baseline  QueryFunc
	Optimized QueryFunc
}

// Queries returns the paper's TPC-H subset: Q1, Q3, Q6, Q14, Q17, Q19.
func Queries() []Query {
	return []Query{
		{Name: "Q1", Baseline: Q1Baseline, Optimized: Q1Optimized},
		{Name: "Q3", Baseline: Q3Baseline, Optimized: Q3Optimized},
		{Name: "Q6", Baseline: Q6Baseline, Optimized: Q6Optimized},
		{Name: "Q14", Baseline: Q14Baseline, Optimized: Q14Optimized},
		{Name: "Q17", Baseline: Q17Baseline, Optimized: Q17Optimized},
		{Name: "Q19", Baseline: Q19Baseline, Optimized: Q19Optimized},
	}
}

// --- Q1: pricing summary report ---

const q1Filter = "l_shipdate <= '1998-09-02'" // 1998-12-01 minus 90 days

const q1Items = `l_returnflag, l_linestatus,
	SUM(l_quantity) AS sum_qty,
	SUM(l_extendedprice) AS sum_base_price,
	SUM(l_extendedprice * (1 - l_discount)) AS sum_disc_price,
	SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)) AS sum_charge,
	AVG(l_quantity) AS avg_qty,
	AVG(l_extendedprice) AS avg_price,
	AVG(l_discount) AS avg_disc,
	COUNT(*) AS count_order`

// Q1Baseline GETs lineitem in full, types the seven columns it reads and
// evaluates everything locally.
func Q1Baseline(db *engine.DB) (*engine.Relation, *engine.Exec, error) {
	e := db.NewExec()
	rel, err := e.LoadTable("load lineitem", e.NextStage(), "lineitem",
		"l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount", "l_tax", "l_shipdate")
	if err != nil {
		return nil, e, err
	}
	rel, err = engine.FilterLocal(rel, q1Filter)
	if err != nil {
		return nil, e, err
	}
	out, err := engine.GroupByLocal(rel, "l_returnflag, l_linestatus", q1Items)
	if err != nil {
		return nil, e, err
	}
	out, err = engine.SortLocal(out, "l_returnflag, l_linestatus")
	return out, e, err
}

// Q1Optimized pushes the filter and the per-group SUM/COUNT aggregates to
// S3 using the S3-side group-by over the composite (returnflag, linestatus)
// key; the averages are recovered from the pushed sums and counts.
func Q1Optimized(db *engine.DB) (*engine.Relation, *engine.Exec, error) {
	e := db.NewExec()
	aggs := []engine.GroupAgg{
		{Func: sqlparse.AggSum, Expr: "l_quantity", As: "sum_qty"},
		{Func: sqlparse.AggSum, Expr: "l_extendedprice", As: "sum_base_price"},
		{Func: sqlparse.AggSum, Expr: "l_extendedprice * (1 - l_discount)", As: "sum_disc_price"},
		{Func: sqlparse.AggSum, Expr: "l_extendedprice * (1 - l_discount) * (1 + l_tax)", As: "sum_charge"},
		{Func: sqlparse.AggSum, Expr: "l_discount", As: "sum_disc"},
		{Func: sqlparse.AggCount, As: "count_order"},
	}
	grouped, err := e.S3SideGroupBy("lineitem", "l_returnflag || l_linestatus", aggs, q1Filter)
	if err != nil {
		return nil, e, err
	}
	out := &engine.Relation{Cols: []string{
		"l_returnflag", "l_linestatus", "sum_qty", "sum_base_price",
		"sum_disc_price", "sum_charge", "avg_qty", "avg_price", "avg_disc",
		"count_order",
	}}
	for _, r := range grouped.Rows {
		key := r[0].String()
		if len(key) != 2 {
			return nil, e, fmt.Errorf("tpch: unexpected Q1 group key %q", key)
		}
		num := func(v value.Value) float64 { f, _ := v.Num(); return f }
		count := num(r[6])
		if count == 0 {
			continue
		}
		out.Rows = append(out.Rows, engine.Row{
			value.Str(key[:1]), value.Str(key[1:]),
			r[1], r[2], r[3], r[4],
			value.Float(num(r[1]) / count),
			value.Float(num(r[2]) / count),
			value.Float(num(r[5]) / count),
			value.Int(int64(count)),
		})
	}
	out, err = engine.SortLocal(out, "l_returnflag, l_linestatus")
	return out, e, err
}

// --- Q3: shipping priority ---

const (
	q3Segment   = "BUILDING"
	q3Date      = "1995-03-15"
	q3Revenue   = "SUM(l_extendedprice * (1 - l_discount)) AS revenue"
	q3GroupCols = "l_orderkey, o_orderdate, o_shippriority"
)

// Q3Baseline GETs customer, orders and lineitem in full, types the columns
// it reads and runs both joins, the group-by and the top-10 locally.
func Q3Baseline(db *engine.DB) (*engine.Relation, *engine.Exec, error) {
	e := db.NewExec()
	stage := e.NextStage()
	rels, err := e.LoadTables(stage,
		engine.Load{Table: "customer", Cols: []string{"c_custkey", "c_mktsegment"}},
		engine.Load{Table: "orders", Cols: []string{"o_orderkey", "o_custkey", "o_orderdate", "o_shippriority"}},
		engine.Load{Table: "lineitem", Cols: []string{"l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"}})
	if err != nil {
		return nil, e, err
	}
	cust, ords, line := rels[0], rels[1], rels[2]
	if cust, err = engine.FilterLocal(cust, "c_mktsegment = '"+q3Segment+"'"); err != nil {
		return nil, e, err
	}
	if ords, err = engine.FilterLocal(ords, "o_orderdate < '"+q3Date+"'"); err != nil {
		return nil, e, err
	}
	if line, err = engine.FilterLocal(line, "l_shipdate > '"+q3Date+"'"); err != nil {
		return nil, e, err
	}
	return q3Finish(e, cust, ords, line)
}

// Q3Optimized pushes the three selections to S3 and runs both joins as
// Bloom joins: customer keys filter the orders scan, then the surviving
// order keys filter the lineitem scan.
func Q3Optimized(db *engine.DB) (*engine.Relation, *engine.Exec, error) {
	e := db.NewExec()
	custOrders, err := e.BloomJoin(engine.JoinSpec{
		LeftTable: "customer", RightTable: "orders",
		LeftKey: "c_custkey", RightKey: "o_custkey",
		LeftFilter:   "c_mktsegment = '" + q3Segment + "'",
		RightFilter:  "o_orderdate < '" + q3Date + "'",
		LeftProject:  []string{"c_custkey"},
		RightProject: []string{"o_orderkey", "o_custkey", "o_orderdate", "o_shippriority"},
		Seed:         3,
	})
	if err != nil {
		return nil, e, err
	}
	line, _, err := e.BloomProbe(custOrders, "o_orderkey", "lineitem", "l_orderkey",
		"l_shipdate > '"+q3Date+"'",
		[]string{"l_orderkey", "l_extendedprice", "l_discount"}, 0.01, false, 3)
	if err != nil {
		return nil, e, err
	}
	joined, err := engine.HashJoinLocal(custOrders, line, "o_orderkey", "l_orderkey")
	if err != nil {
		return nil, e, err
	}
	out, err := engine.GroupByLocal(joined, q3GroupCols, q3GroupCols+", "+q3Revenue)
	if err != nil {
		return nil, e, err
	}
	if out, err = engine.SortLocal(out, "revenue DESC, o_orderdate"); err != nil {
		return nil, e, err
	}
	return engine.LimitLocal(out, 10), e, nil
}

func q3Finish(e *engine.Exec, cust, ords, line *engine.Relation) (*engine.Relation, *engine.Exec, error) {
	co, err := engine.HashJoinLocal(cust, ords, "c_custkey", "o_custkey")
	if err != nil {
		return nil, e, err
	}
	col, err := engine.HashJoinLocal(co, line, "o_orderkey", "l_orderkey")
	if err != nil {
		return nil, e, err
	}
	out, err := engine.GroupByLocal(col, q3GroupCols, q3GroupCols+", "+q3Revenue)
	if err != nil {
		return nil, e, err
	}
	if out, err = engine.SortLocal(out, "revenue DESC, o_orderdate"); err != nil {
		return nil, e, err
	}
	return engine.LimitLocal(out, 10), e, nil
}

// --- Q6: forecasting revenue change ---

const q6Filter = "l_shipdate >= '1994-01-01' AND l_shipdate < '1995-01-01'" +
	" AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24"

// Q6Baseline GETs lineitem in full and filters/aggregates locally.
func Q6Baseline(db *engine.DB) (*engine.Relation, *engine.Exec, error) {
	e := db.NewExec()
	rel, err := e.LoadTable("load lineitem", e.NextStage(), "lineitem",
		"l_shipdate", "l_discount", "l_quantity", "l_extendedprice")
	if err != nil {
		return nil, e, err
	}
	if rel, err = engine.FilterLocal(rel, q6Filter); err != nil {
		return nil, e, err
	}
	out, err := engine.AggregateLocal(rel, "SUM(l_extendedprice * l_discount) AS revenue")
	return out, e, err
}

// Q6Optimized pushes the whole query (filter + aggregate) into S3 Select —
// the paper's ideal case.
func Q6Optimized(db *engine.DB) (*engine.Relation, *engine.Exec, error) {
	e := db.NewExec()
	row, err := e.SelectAgg("q6 pushdown", e.NextStage(), "lineitem",
		"SELECT SUM(l_extendedprice * l_discount) FROM S3Object WHERE "+q6Filter,
		[]sqlparse.AggFunc{sqlparse.AggSum})
	if err != nil {
		return nil, e, err
	}
	return &engine.Relation{Cols: []string{"revenue"}, Rows: []engine.Row{row}}, e, nil
}

// --- Q14: promotion effect ---

const (
	q14Filter = "l_shipdate >= '1995-09-01' AND l_shipdate < '1995-10-01'"
	q14Items  = "100.0 * SUM(CASE WHEN p_type LIKE 'PROMO%' THEN l_extendedprice * (1 - l_discount) ELSE 0 END)" +
		" / SUM(l_extendedprice * (1 - l_discount)) AS promo_revenue"
)

// Q14Baseline GETs lineitem and part in full, joins and aggregates locally.
func Q14Baseline(db *engine.DB) (*engine.Relation, *engine.Exec, error) {
	e := db.NewExec()
	stage := e.NextStage()
	rels, err := e.LoadTables(stage,
		engine.Load{Table: "lineitem", Cols: []string{"l_partkey", "l_extendedprice", "l_discount", "l_shipdate"}},
		engine.Load{Table: "part", Cols: []string{"p_partkey", "p_type"}})
	if err != nil {
		return nil, e, err
	}
	line, part := rels[0], rels[1]
	line, err = engine.FilterLocal(line, q14Filter)
	if err != nil {
		return nil, e, err
	}
	joined, err := engine.HashJoinLocal(line, part, "l_partkey", "p_partkey")
	if err != nil {
		return nil, e, err
	}
	out, err := engine.AggregateLocal(joined, q14Items)
	return out, e, err
}

// Q14Optimized pushes the date filter and projection into the lineitem
// scan, then Bloom-filters the part scan with the surviving part keys.
func Q14Optimized(db *engine.DB) (*engine.Relation, *engine.Exec, error) {
	e := db.NewExec()
	line, err := e.SelectRows("q14 lineitem scan", e.NextStage(), "lineitem",
		"SELECT l_partkey, l_extendedprice, l_discount FROM S3Object WHERE "+q14Filter)
	if err != nil {
		return nil, e, err
	}
	part, _, err := e.BloomProbe(line, "l_partkey", "part", "p_partkey", "",
		[]string{"p_partkey", "p_type"}, 0.01, false, 14)
	if err != nil {
		return nil, e, err
	}
	joined, err := engine.HashJoinLocal(line, part, "l_partkey", "p_partkey")
	if err != nil {
		return nil, e, err
	}
	out, err := engine.AggregateLocal(joined, q14Items)
	return out, e, err
}

// --- Q17: small-quantity-order revenue ---

const q17PartFilter = "p_brand = 'Brand#23' AND p_container = 'MED BOX'"

// Q17Baseline GETs part and lineitem in full and computes the correlated
// average locally.
func Q17Baseline(db *engine.DB) (*engine.Relation, *engine.Exec, error) {
	e := db.NewExec()
	stage := e.NextStage()
	rels, err := e.LoadTables(stage,
		engine.Load{Table: "lineitem", Cols: []string{"l_partkey", "l_quantity", "l_extendedprice"}},
		engine.Load{Table: "part", Cols: []string{"p_partkey", "p_brand", "p_container"}})
	if err != nil {
		return nil, e, err
	}
	line, part := rels[0], rels[1]
	part, err = engine.FilterLocal(part, q17PartFilter)
	if err != nil {
		return nil, e, err
	}
	out, err := q17Finish(part, line)
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
	line, _, err := e.BloomProbe(part, "p_partkey", "lineitem", "l_partkey", "",
		[]string{"l_partkey", "l_quantity", "l_extendedprice"}, 0.01, false, 17)
	if err != nil {
		return nil, e, err
	}
	out, err := q17Finish(part, line)
	return out, e, err
}

func q17Finish(part, line *engine.Relation) (*engine.Relation, error) {
	joined, err := engine.HashJoinLocal(part, line, "p_partkey", "l_partkey")
	if err != nil {
		return nil, err
	}
	avg, err := engine.GroupByLocal(joined, "p_partkey", "p_partkey AS avg_key, AVG(l_quantity) AS avg_qty")
	if err != nil {
		return nil, err
	}
	withAvg, err := engine.HashJoinLocal(joined, avg, "p_partkey", "avg_key")
	if err != nil {
		return nil, err
	}
	small, err := engine.FilterLocal(withAvg, "l_quantity < 0.2 * avg_qty")
	if err != nil {
		return nil, err
	}
	return engine.AggregateLocal(small, "SUM(l_extendedprice) / 7.0 AS avg_yearly")
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
)

// Q19Baseline GETs both tables in full and evaluates the whole disjunctive
// predicate locally.
func Q19Baseline(db *engine.DB) (*engine.Relation, *engine.Exec, error) {
	e := db.NewExec()
	stage := e.NextStage()
	rels, err := e.LoadTables(stage,
		engine.Load{Table: "lineitem", Cols: []string{
			"l_partkey", "l_quantity", "l_extendedprice", "l_discount", "l_shipmode", "l_shipinstruct"}},
		engine.Load{Table: "part", Cols: []string{"p_partkey", "p_brand", "p_container", "p_size"}})
	if err != nil {
		return nil, e, err
	}
	line, part := rels[0], rels[1]
	line, err = engine.FilterLocal(line, q19LineFilter)
	if err != nil {
		return nil, e, err
	}
	if part, err = engine.FilterLocal(part, q19PartFilter); err != nil {
		return nil, e, err
	}
	return q19Finish(e, part, line)
}

// Q19Optimized pushes both sides' filters; the filtered part keys Bloom-
// filter the lineitem scan; the brand/quantity correlation is checked
// locally as a residual.
func Q19Optimized(db *engine.DB) (*engine.Relation, *engine.Exec, error) {
	e := db.NewExec()
	part, err := e.SelectRows("q19 part scan", e.NextStage(), "part",
		"SELECT p_partkey, p_brand FROM S3Object WHERE "+q19PartFilter)
	if err != nil {
		return nil, e, err
	}
	line, _, err := e.BloomProbe(part, "p_partkey", "lineitem", "l_partkey",
		q19LineFilter,
		[]string{"l_partkey", "l_quantity", "l_extendedprice", "l_discount"}, 0.01, false, 19)
	if err != nil {
		return nil, e, err
	}
	return q19Finish(e, part, line)
}

func q19Finish(e *engine.Exec, part, line *engine.Relation) (*engine.Relation, *engine.Exec, error) {
	joined, err := engine.HashJoinLocal(part, line, "p_partkey", "l_partkey")
	if err != nil {
		return nil, e, err
	}
	matched, err := engine.FilterLocal(joined, q19Residual)
	if err != nil {
		return nil, e, err
	}
	out, err := engine.AggregateLocal(matched, q19Items)
	return out, e, err
}
