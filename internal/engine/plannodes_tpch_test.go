package engine_test

import (
	"context"
	"strings"
	"testing"

	"pushdowndb/internal/cloudsim"
	"pushdowndb/internal/engine"
	"pushdowndb/internal/s3api"
	"pushdowndb/internal/store"
	"pushdowndb/internal/tpch"
)

// tpchGoldens are internal/tpch's golden statements but Q3 (q3SQL).
var tpchGoldens = []string{
	"SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty, SUM(l_extendedprice) AS sum_base_price, " +
		"SUM(l_extendedprice * (1 - l_discount)) AS sum_disc_price, " +
		"SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)) AS sum_charge, " +
		"AVG(l_quantity) AS avg_qty, AVG(l_extendedprice) AS avg_price, AVG(l_discount) AS avg_disc, COUNT(*) AS count_order " +
		"FROM lineitem WHERE l_shipdate <= '1998-09-02' GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus",
	"SELECT SUM(l_extendedprice * l_discount) AS revenue FROM lineitem " +
		"WHERE l_shipdate >= '1994-01-01' AND l_shipdate < '1995-01-01' AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24",
	"SELECT 100.0 * SUM(CASE WHEN p_type LIKE 'PROMO%' THEN l_extendedprice * (1 - l_discount) ELSE 0 END) " +
		"/ SUM(l_extendedprice * (1 - l_discount)) AS promo_revenue FROM lineitem l JOIN part p ON l.l_partkey = p.p_partkey " +
		"WHERE l.l_shipdate >= '1995-09-01' AND l.l_shipdate < '1995-10-01'",
	"SELECT SUM(l_extendedprice * (1 - l_discount)) AS revenue FROM lineitem l JOIN part p ON l.l_partkey = p.p_partkey " +
		"WHERE l.l_shipmode IN ('AIR', 'AIR REG') AND l.l_shipinstruct = 'DELIVER IN PERSON' AND l.l_quantity BETWEEN 1 AND 30 " +
		"AND ((p.p_brand = 'Brand#12' AND l.l_quantity BETWEEN 1 AND 11) OR (p.p_brand = 'Brand#23' AND l.l_quantity BETWEEN 10 AND 20) " +
		"OR (p.p_brand = 'Brand#34' AND l.l_quantity BETWEEN 20 AND 30))",
}

// TestPlannerNodeCountsTPCH is TestPlannerNodeCounts over the TPC-H goldens
// at SF 0.01 with the loader's indexes, priced at the paper's scale: their
// join scans (no single-table golden has an access decision to price).
func TestPlannerNodeCountsTPCH(t *testing.T) {
	ctx := context.Background()
	st := store.New()
	ds, err := tpch.LoadWithIndexes(ctx, st, tpch.Dataset{SF: 0.01, Seed: 42, Bucket: "tpch", Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	db, err := engine.Open(ds.Bucket, engine.WithBackend("s3sim", s3api.NewInProc(st)),
		engine.WithScale(cloudsim.Scale{DataRatio: 10 / 0.01, PartRatio: 8}))
	if err != nil {
		t.Fatal(err)
	}
	checked := map[string]int{}
	for _, sql := range append([]string{q3SQL}, tpchGoldens...) {
		_, e, err := db.QueryContext(ctx, sql)
		if err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
		for kind, n := range engine.CheckPlannedNodes(t, sql, e, sql) {
			checked[kind] += n
		}
	}
	if checked["scan"] == 0 {
		t.Errorf("the goldens planned no join scan: %v", checked)
	}
}

// TestPlanAgreementTPCH is TestPlanAgreement over Q3 and the TPC-H goldens
// at SF 0.01, paper scale, over CSV and over the colformat copies.
func TestPlanAgreementTPCH(t *testing.T) {
	ctx := context.Background()
	st := store.New()
	ds, err := tpch.Load(ctx, st, tpch.Dataset{SF: 0.01, Seed: 42, Bucket: "tpch", Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tpch.LoadColumnar(st, ds); err != nil {
		t.Fatal(err)
	}
	open := func() *engine.DB {
		db, err := engine.Open(ds.Bucket, engine.WithBackend("s3sim", s3api.NewInProc(st)),
			engine.WithScale(cloudsim.Scale{DataRatio: 10 / 0.01, PartRatio: 8}))
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	toColumnar := strings.NewReplacer("FROM lineitem", "FROM lineitem_col", "FROM customer", "FROM customer_col",
		"JOIN orders", "JOIN orders_col", "JOIN lineitem", "JOIN lineitem_col", "JOIN part", "JOIN part_col")
	for _, sql := range append([]string{q3SQL}, tpchGoldens...) {
		engine.CheckPlanAgreement(t, sql, open, sql)
		col := toColumnar.Replace(sql)
		engine.CheckPlanAgreement(t, col, open, col)
	}
}
