package tpch

import (
	"pushdowndb/internal/engine"
)

// Extended queries beyond the paper's six: Q4, Q10 and Q12 exercise the
// same decompositions (Bloom semi-joins, selection/projection pushdown,
// multi-table pipelines) on query shapes the paper did not evaluate. They
// are not part of Fig. 10; ExtendedQueries exposes them for users and for
// the extended test suite.

// ExtendedQueries returns Q4, Q10 and Q12.
func ExtendedQueries() []Query {
	return []Query{
		{Name: "Q4", Baseline: Q4Baseline, Optimized: Q4Optimized},
		{Name: "Q10", Baseline: Q10Baseline, Optimized: Q10Optimized},
		{Name: "Q12", Baseline: Q12Baseline, Optimized: Q12Optimized},
	}
}

// --- Q4: order priority checking ---
//
// SELECT o_orderpriority, COUNT(*) FROM orders
// WHERE o_orderdate >= 1993-07-01 AND o_orderdate < 1993-10-01
//   AND EXISTS (SELECT * FROM lineitem
//               WHERE l_orderkey = o_orderkey AND l_commitdate < l_receiptdate)
// GROUP BY o_orderpriority ORDER BY o_orderpriority

const (
	q4OrdersFilter = "o_orderdate >= '1993-07-01' AND o_orderdate < '1993-10-01'"
	q4LineFilter   = "l_commitdate < l_receiptdate"
)

// Q4Baseline loads both tables and evaluates the semi-join locally.
func Q4Baseline(db *engine.DB) (*engine.Relation, *engine.Exec, error) {
	e := db.NewExec()
	stage := e.NextStage()
	rels, err := e.LoadTables(stage, "orders", "lineitem")
	if err != nil {
		return nil, e, err
	}
	ords, line := rels[0], rels[1]
	ords, err = engine.FilterLocal(ords, q4OrdersFilter)
	if err != nil {
		return nil, e, err
	}
	if line, err = engine.FilterLocal(line, q4LineFilter); err != nil {
		return nil, e, err
	}
	out, err := q4Finish(ords, line)
	return out, e, err
}

// Q4Optimized pushes the orders date filter, then Bloom-filters the
// lineitem scan to the qualifying order keys (a pushed semi-join).
func Q4Optimized(db *engine.DB) (*engine.Relation, *engine.Exec, error) {
	e := db.NewExec()
	ords, err := e.SelectRows("q4 orders scan", e.NextStage(), "orders",
		"SELECT o_orderkey, o_orderpriority FROM S3Object WHERE "+q4OrdersFilter)
	if err != nil {
		return nil, e, err
	}
	line, _, err := e.BloomProbe(ords, "o_orderkey", "lineitem", "l_orderkey",
		q4LineFilter, []string{"l_orderkey"}, 0.01, false, 4)
	if err != nil {
		return nil, e, err
	}
	out, err := q4Finish(ords, line)
	return out, e, err
}

func q4Finish(ords, line *engine.Relation) (*engine.Relation, error) {
	// Semi-join: orders with at least one qualifying lineitem.
	oi := line.ColIndex("l_orderkey")
	if oi < 0 {
		return nil, errMissing("l_orderkey", line)
	}
	hasLine := map[int64]bool{}
	for _, r := range line.Rows {
		if k, ok := r[oi].IntNum(); ok {
			hasLine[k] = true
		}
	}
	ki := ords.ColIndex("o_orderkey")
	if ki < 0 {
		return nil, errMissing("o_orderkey", ords)
	}
	matched := &engine.Relation{Cols: ords.Cols}
	for _, r := range ords.Rows {
		if k, ok := r[ki].IntNum(); ok && hasLine[k] {
			matched.Rows = append(matched.Rows, r)
		}
	}
	out, err := engine.GroupByLocal(matched, "o_orderpriority",
		"o_orderpriority, COUNT(*) AS order_count")
	if err != nil {
		return nil, err
	}
	return engine.SortLocal(out, "o_orderpriority")
}

// --- Q10: returned item reporting ---
//
// SELECT c_custkey, c_name, SUM(l_extendedprice*(1-l_discount)) AS revenue,
//        c_acctbal, n_name
// FROM customer, orders, lineitem, nation
// WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
//   AND o_orderdate >= 1993-10-01 AND o_orderdate < 1994-01-01
//   AND l_returnflag = 'R' AND c_nationkey = n_nationkey
// GROUP BY c_custkey, c_name, c_acctbal, n_name
// ORDER BY revenue DESC LIMIT 20

const (
	q10OrdersFilter = "o_orderdate >= '1993-10-01' AND o_orderdate < '1994-01-01'"
	q10LineFilter   = "l_returnflag = 'R'"
	q10Group        = "c_custkey, c_name, c_acctbal, n_name"
	q10Items        = q10Group + ", SUM(l_extendedprice * (1 - l_discount)) AS revenue"
)

// Q10Baseline loads all four tables and runs the pipeline locally.
func Q10Baseline(db *engine.DB) (*engine.Relation, *engine.Exec, error) {
	e := db.NewExec()
	stage := e.NextStage()
	rels, err := e.LoadTables(stage, "customer", "orders", "lineitem", "nation")
	if err != nil {
		return nil, e, err
	}
	ords, err := engine.FilterLocal(rels[1], q10OrdersFilter)
	if err != nil {
		return nil, e, err
	}
	line, err := engine.FilterLocal(rels[2], q10LineFilter)
	if err != nil {
		return nil, e, err
	}
	out, err := q10Finish(rels[0], ords, line, rels[3])
	return out, e, err
}

// Q10Optimized pushes both filters, Bloom-filters lineitem by the
// qualifying order keys and customer by the qualifying customer keys, and
// loads the tiny nation table directly.
func Q10Optimized(db *engine.DB) (*engine.Relation, *engine.Exec, error) {
	e := db.NewExec()
	ords, err := e.SelectRows("q10 orders scan", e.NextStage(), "orders",
		"SELECT o_orderkey, o_custkey FROM S3Object WHERE "+q10OrdersFilter)
	if err != nil {
		return nil, e, err
	}
	line, _, err := e.BloomProbe(ords, "o_orderkey", "lineitem", "l_orderkey",
		q10LineFilter, []string{"l_orderkey", "l_extendedprice", "l_discount"}, 0.01, false, 10)
	if err != nil {
		return nil, e, err
	}
	cust, _, err := e.BloomProbe(ords, "o_custkey", "customer", "c_custkey",
		"", []string{"c_custkey", "c_name", "c_acctbal", "c_nationkey"}, 0.01, false, 11)
	if err != nil {
		return nil, e, err
	}
	nation, err := e.LoadTable("load nation", e.NextStage(), "nation")
	if err != nil {
		return nil, e, err
	}
	out, err := q10Finish(cust, ords, line, nation)
	return out, e, err
}

func q10Finish(cust, ords, line, nation *engine.Relation) (*engine.Relation, error) {
	co, err := engine.HashJoinLocal(cust, ords, "c_custkey", "o_custkey")
	if err != nil {
		return nil, err
	}
	col, err := engine.HashJoinLocal(co, line, "o_orderkey", "l_orderkey")
	if err != nil {
		return nil, err
	}
	withNation, err := engine.HashJoinLocal(col, nation, "c_nationkey", "n_nationkey")
	if err != nil {
		return nil, err
	}
	out, err := engine.GroupByLocal(withNation, q10Group, q10Items)
	if err != nil {
		return nil, err
	}
	if out, err = engine.SortLocal(out, "revenue DESC, c_custkey"); err != nil {
		return nil, err
	}
	return engine.LimitLocal(out, 20), nil
}

// --- Q12: shipping modes and order priority ---
//
// SELECT l_shipmode,
//        SUM(CASE WHEN o_orderpriority IN ('1-URGENT','2-HIGH') THEN 1 ELSE 0 END) AS high_line_count,
//        SUM(CASE WHEN o_orderpriority NOT IN ('1-URGENT','2-HIGH') THEN 1 ELSE 0 END) AS low_line_count
// FROM orders, lineitem
// WHERE o_orderkey = l_orderkey AND l_shipmode IN ('MAIL','SHIP')
//   AND l_commitdate < l_receiptdate AND l_shipdate < l_commitdate
//   AND l_receiptdate >= 1994-01-01 AND l_receiptdate < 1995-01-01
// GROUP BY l_shipmode ORDER BY l_shipmode

const (
	q12LineFilter = "l_shipmode IN ('MAIL', 'SHIP') AND l_commitdate < l_receiptdate" +
		" AND l_shipdate < l_commitdate AND l_receiptdate >= '1994-01-01'" +
		" AND l_receiptdate < '1995-01-01'"
	q12Items = "l_shipmode, " +
		"SUM(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH') THEN 1 ELSE 0 END) AS high_line_count, " +
		"SUM(CASE WHEN o_orderpriority NOT IN ('1-URGENT', '2-HIGH') THEN 1 ELSE 0 END) AS low_line_count"
)

// Q12Baseline loads both tables and evaluates everything locally.
func Q12Baseline(db *engine.DB) (*engine.Relation, *engine.Exec, error) {
	e := db.NewExec()
	stage := e.NextStage()
	rels, err := e.LoadTables(stage, "orders", "lineitem")
	if err != nil {
		return nil, e, err
	}
	ords, line := rels[0], rels[1]
	line, err = engine.FilterLocal(line, q12LineFilter)
	if err != nil {
		return nil, e, err
	}
	out, err := q12Finish(ords, line)
	return out, e, err
}

// Q12Optimized pushes the multi-column lineitem filter (including the
// cross-column date comparisons), then Bloom-filters the orders scan.
func Q12Optimized(db *engine.DB) (*engine.Relation, *engine.Exec, error) {
	e := db.NewExec()
	line, err := e.SelectRows("q12 lineitem scan", e.NextStage(), "lineitem",
		"SELECT l_orderkey, l_shipmode FROM S3Object WHERE "+q12LineFilter)
	if err != nil {
		return nil, e, err
	}
	ords, _, err := e.BloomProbe(line, "l_orderkey", "orders", "o_orderkey",
		"", []string{"o_orderkey", "o_orderpriority"}, 0.01, false, 12)
	if err != nil {
		return nil, e, err
	}
	out, err := q12Finish(ords, line)
	return out, e, err
}

func q12Finish(ords, line *engine.Relation) (*engine.Relation, error) {
	joined, err := engine.HashJoinLocal(ords, line, "o_orderkey", "l_orderkey")
	if err != nil {
		return nil, err
	}
	out, err := engine.GroupByLocal(joined, "l_shipmode", q12Items)
	if err != nil {
		return nil, err
	}
	return engine.SortLocal(out, "l_shipmode")
}

type missingColumnError struct {
	col  string
	cols []string
}

func (e *missingColumnError) Error() string {
	return "tpch: column " + e.col + " not found in relation"
}

func errMissing(col string, rel *engine.Relation) error {
	return &missingColumnError{col: col, cols: rel.Cols}
}
