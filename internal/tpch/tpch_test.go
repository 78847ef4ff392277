package tpch

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"pushdowndb/internal/cloudsim"
	"pushdowndb/internal/engine"
	"pushdowndb/internal/s3api"
	"pushdowndb/internal/store"
)

func testDB(t *testing.T, sf float64, opts ...engine.Option) *engine.DB {
	t.Helper()
	st := store.New()
	ds, err := Load(context.Background(), st, Dataset{SF: sf, Seed: 42, Bucket: "tpch", Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	db, err := engine.Open(ds.Bucket, append([]engine.Option{engine.WithBackend("s3sim", s3api.NewInProc(st))}, opts...)...)
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

// paperDB is the SF 0.002 dataset with the virtual clock reporting at
// Fig. 10's configuration, SF 10 over 32 partitions, where the planner makes
// the choices the figure shows.
func paperDB(t *testing.T) *engine.DB {
	const sf = 0.002
	return testDB(t, sf, engine.WithScale(cloudsim.Scale{DataRatio: 10 / sf, PartRatio: 32.0 / 4}))
}

// optimized returns the Optimized plan of the query called name.
func optimized(t *testing.T, name string) QueryFunc {
	t.Helper()
	for _, q := range Queries() {
		if q.Name == name {
			return q.Optimized
		}
	}
	t.Fatalf("no query %s", name)
	return nil
}

// fig10Joins is the number of joins of each TPC-H query whose optimized
// plan Fig. 10 shows running every join as a Bloom join.
var fig10Joins = map[string]int{"Q3": 2, "Q14": 1, "Q19": 1}

// TestQueriesBaselineVsOptimized checks each optimized plan against its
// baseline at Fig. 10's configuration: the answers are identical byte for
// byte, the optimized plan moves fewer bytes to the server, and the
// planner runs the joins as the figure shows them.
func TestQueriesBaselineVsOptimized(t *testing.T) {
	db := paperDB(t)
	for _, q := range Queries() {
		t.Run(q.Name, func(t *testing.T) {
			base, be, err := q.Baseline(db)
			if err != nil {
				t.Fatalf("baseline: %v", err)
			}
			opt, oe, err := q.Optimized(db)
			if err != nil {
				t.Fatalf("optimized: %v", err)
			}
			if got, want := renderGolden(opt), renderGolden(base); got != want {
				t.Errorf("optimized answer differs from baseline\noptimized:\n%s\nbaseline:\n%s", got, want)
			}
			_, _, bRet, bGet := be.Metrics.Totals()
			_, _, oRet, oGet := oe.Metrics.Totals()
			if oRet+oGet >= bRet+bGet {
				t.Errorf("optimized moved %d bytes, baseline %d — pushdown ineffective",
					oRet+oGet, bRet+bGet)
			}
			joins, ok := fig10Joins[q.Name]
			if !ok {
				return
			}
			plan := oe.QueryPlan()
			if plan == nil || len(plan.Steps) != joins {
				t.Fatalf("optimized plan is not a planned %d-join statement:\n%v", joins, plan)
			}
			for i, st := range plan.Steps {
				if st.Strategy != engine.StrategyBloom {
					t.Errorf("join %d: strategy %s, want %s\n%s", i+1, st.Strategy, engine.StrategyBloom, plan)
				}
			}
		})
	}
}

func TestQ6ValueIsPlausible(t *testing.T) {
	db := testDB(t, 0.002)
	rel, _, err := optimized(t, "Q6")(db)
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
	rel, _, err := optimized(t, "Q1")(db)
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
