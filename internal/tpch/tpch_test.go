package tpch

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"pushdowndb/internal/engine"
	"pushdowndb/internal/s3api"
	"pushdowndb/internal/store"
)

func testDB(t *testing.T, sf float64) *engine.DB {
	t.Helper()
	st := store.New()
	ds, err := Load(context.Background(), st, Dataset{SF: sf, Seed: 42, Bucket: "tpch", Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	db, err := engine.Open(ds.Bucket, engine.WithBackend("s3sim", s3api.NewInProc(st)))
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestSizesFor(t *testing.T) {
	s := SizesFor(1)
	if s.Customers != 150_000 || s.Orders != 1_500_000 || s.Parts != 200_000 || s.Suppliers != 10_000 {
		t.Errorf("SF=1 sizes wrong: %+v", s)
	}
	tiny := SizesFor(0.000001)
	if tiny.Customers < 1 || tiny.Orders < 1 {
		t.Error("sizes must be at least 1")
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a := GenCustomers(0.001, 7)
	b := GenCustomers(0.001, 7)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed must generate identical data")
	}
	c := GenCustomers(0.001, 8)
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds should differ")
	}
}

func TestCustomerDistributions(t *testing.T) {
	rows := GenCustomers(0.01, 1)
	if len(rows) != 1500 {
		t.Fatalf("rows = %d", len(rows))
	}
	segs := map[string]int{}
	var below float64
	for _, r := range rows {
		if len(r) != len(CustomerHeader) {
			t.Fatalf("row arity %d", len(r))
		}
		segs[r[6]]++
		var bal float64
		fmt.Sscanf(r[5], "%f", &bal)
		if bal < -999.99 || bal > 9999.99 {
			t.Fatalf("acctbal %v out of spec range", bal)
		}
		if bal <= -950 {
			below++
		}
	}
	if len(segs) != 5 {
		t.Errorf("mktsegments = %v", segs)
	}
	// P(acctbal <= -950) = 50/11000 ~ 0.0045; allow generous tolerance.
	frac := below / float64(len(rows))
	if frac > 0.02 {
		t.Errorf("acctbal <= -950 fraction = %v, expected ~0.0045", frac)
	}
}

func TestOrdersDates(t *testing.T) {
	rows := GenOrders(0.001, 1)
	for _, r := range rows {
		d := r[4]
		if d < "1992-01-01" || d > "1998-08-02" {
			t.Fatalf("order date %s out of range", d)
		}
	}
	if DaysFromStart("1992-01-01") != 0 {
		t.Error("DaysFromStart epoch wrong")
	}
	if DaysFromStart("1992-01-31") != 30 {
		t.Errorf("DaysFromStart: %d", DaysFromStart("1992-01-31"))
	}
}

func TestLineitemsPerOrder(t *testing.T) {
	orders := GenOrders(0.001, 1)
	lines := GenLineitems(0.001, 1, orders)
	perOrder := map[string]int{}
	for _, l := range lines {
		perOrder[l[0]]++
		if len(l) != len(LineitemHeader) {
			t.Fatalf("lineitem arity %d", len(l))
		}
		// shipdate within 121 days of order date: spot-check format only.
		if !strings.Contains(l[10], "-") {
			t.Fatalf("bad shipdate %q", l[10])
		}
	}
	if len(perOrder) != len(orders) {
		t.Errorf("orders with lines = %d, want %d", len(perOrder), len(orders))
	}
	avg := float64(len(lines)) / float64(len(orders))
	if avg < 3 || avg > 5 {
		t.Errorf("avg lines per order = %v, want ~4", avg)
	}
	for k, n := range perOrder {
		if n < 1 || n > 7 {
			t.Fatalf("order %s has %d lines", k, n)
		}
	}
}

func TestPartsVocabulary(t *testing.T) {
	rows := GenParts(0.01, 1)
	brands := map[string]bool{}
	for _, r := range rows {
		if !strings.HasPrefix(r[3], "Brand#") {
			t.Fatalf("brand %q", r[3])
		}
		brands[r[3]] = true
		if len(strings.Fields(r[4])) != 3 {
			t.Fatalf("type %q", r[4])
		}
		if len(strings.Fields(r[6])) != 2 {
			t.Fatalf("container %q", r[6])
		}
	}
	if len(brands) != 25 {
		t.Errorf("distinct brands = %d, want 25", len(brands))
	}
}

func TestNationRegionFixed(t *testing.T) {
	if len(GenNations()) != 25 || len(GenRegions()) != 5 {
		t.Error("fixed tables wrong size")
	}
}

func TestLoadCreatesAllTables(t *testing.T) {
	st := store.New()
	ds, err := LoadWithIndexes(context.Background(), st, Dataset{SF: 0.001, Seed: 1, Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, table := range []string{"customer", "orders", "lineitem", "part", "supplier", "nation", "region"} {
		if parts := st.TableParts(ds.Bucket, table); len(parts) == 0 {
			t.Errorf("table %s missing", table)
		}
	}
	// The index is in lineitem's manifest, where any DB over the store
	// finds it (and the planner with it).
	db, err := engine.Open(ds.Bucket, engine.WithBackend("s3sim", s3api.NewInProc(st)))
	if err != nil {
		t.Fatal(err)
	}
	ents := db.Indexes(context.Background(), "lineitem")
	if len(ents) != 1 || ents[0].Column != "l_extendedprice" || ents[0].Partitions != 2 {
		t.Errorf("lineitem indexes = %+v", ents)
	}
}

// relKey renders a relation into comparable sorted strings with numeric
// rounding (baseline and optimized paths legitimately differ in float
// summation order).
func relKey(rel *engine.Relation) []string {
	out := make([]string, 0, len(rel.Rows))
	for _, r := range rel.Rows {
		var parts []string
		for _, v := range r {
			if f, ok := v.Num(); ok && v.Kind() != 0 {
				parts = append(parts, fmt.Sprintf("%.2f", f))
				continue
			}
			parts = append(parts, v.String())
		}
		out = append(out, strings.Join(parts, "|"))
	}
	return out
}

func TestQueriesBaselineVsOptimized(t *testing.T) {
	db := testDB(t, 0.002)
	for _, q := range Queries() {
		q := q
		t.Run(q.Name, func(t *testing.T) {
			base, be, err := q.Baseline(db)
			if err != nil {
				t.Fatalf("baseline: %v", err)
			}
			opt, oe, err := q.Optimized(db)
			if err != nil {
				t.Fatalf("optimized: %v", err)
			}
			if len(base.Rows) != len(opt.Rows) {
				t.Fatalf("row counts differ: baseline %d vs optimized %d\nbase:\n%s\nopt:\n%s",
					len(base.Rows), len(opt.Rows), base, opt)
			}
			bk, ok := relKey(base), relKey(opt)
			for i := range bk {
				if bk[i] != ok[i] {
					t.Errorf("row %d differs:\n  baseline  %s\n  optimized %s", i, bk[i], ok[i])
				}
			}
			// The optimized plan must move fewer bytes to the server.
			_, _, bRet, bGet := be.Metrics.Totals()
			_, _, oRet, oGet := oe.Metrics.Totals()
			if oRet+oGet >= bRet+bGet {
				t.Errorf("optimized moved %d bytes, baseline %d — pushdown ineffective",
					oRet+oGet, bRet+bGet)
			}
		})
	}
}

func TestQ6ValueIsPlausible(t *testing.T) {
	db := testDB(t, 0.002)
	rel, _, err := Q6Optimized(db)
	if err != nil {
		t.Fatal(err)
	}
	v, ok := rel.Rows[0][0].Num()
	if !ok || math.IsNaN(v) || v <= 0 {
		t.Errorf("Q6 revenue = %v", rel.Rows[0][0])
	}
}

func TestQ1GroupCount(t *testing.T) {
	db := testDB(t, 0.002)
	rel, _, err := Q1Optimized(db)
	if err != nil {
		t.Fatal(err)
	}
	// A/F, N/F, N/O, R/F are the classic four groups.
	if len(rel.Rows) < 3 || len(rel.Rows) > 4 {
		t.Errorf("Q1 groups = %d, want 3-4:\n%s", len(rel.Rows), rel)
	}
	for _, r := range rel.Rows {
		cnt, _ := r[9].IntNum()
		avgQty, _ := r[6].Num()
		if cnt <= 0 || avgQty <= 0 || avgQty > 51 {
			t.Errorf("implausible Q1 row: %v", r)
		}
	}
}
