package tpch

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"pushdowndb/internal/engine"
	"pushdowndb/internal/s3api"
	"pushdowndb/internal/store"
)

// TestBaselineBills: each hand Baseline bills, on the golden dataset, the
// virtual runtime and cost it billed when its stage's loads ran
// concurrently and every join ran over loaded relations, bit for bit: a
// probing load keeps its phase and its stage, and virtual time comes from
// phases and stages, not from the order the loads ran in.
func TestBaselineBills(t *testing.T) {
	const runtime = "0.02214252 "
	bills := map[string]string{
		"base_q1":  "cloudsim.CostBreakdown{ComputeUSD:1.30886896e-05, RequestUSD:1.6000000000000001e-06, ScanUSD:0, TransferUSD:0}",
		"base_q3":  "cloudsim.CostBreakdown{ComputeUSD:1.30886896e-05, RequestUSD:4.800000000000001e-06, ScanUSD:0, TransferUSD:0}",
		"base_q6":  "cloudsim.CostBreakdown{ComputeUSD:1.30886896e-05, RequestUSD:1.6000000000000001e-06, ScanUSD:0, TransferUSD:0}",
		"base_q14": "cloudsim.CostBreakdown{ComputeUSD:1.30886896e-05, RequestUSD:3.2000000000000003e-06, ScanUSD:0, TransferUSD:0}",
		"base_q17": "cloudsim.CostBreakdown{ComputeUSD:1.30886896e-05, RequestUSD:3.2000000000000003e-06, ScanUSD:0, TransferUSD:0}",
		"base_q19": "cloudsim.CostBreakdown{ComputeUSD:1.30886896e-05, RequestUSD:3.2000000000000003e-06, ScanUSD:0, TransferUSD:0}",
	}
	db, _ := goldenDB(t)
	for _, q := range Queries() {
		name := "base_" + strings.ToLower(q.Name)
		_, e, err := q.Baseline(db)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := fmt.Sprintf("%v %#v", e.RuntimeSeconds(), e.Cost()), runtime+bills[name]; got != want {
			t.Errorf("%s billed %s, want %s", name, got, want)
		}
	}
}

// TestQ17JoinsRows: Q17's part filter keeps no row of the golden dataset
// (its golden answer is NULL), so there its join never runs over rows that
// join. At seed 2 it keeps three, and the probing baseline answers as the
// Bloom-probed plan does, byte for byte and not NULL.
func TestQ17JoinsRows(t *testing.T) {
	st := store.New()
	ds, err := Load(context.Background(), st, Dataset{SF: 0.002, Seed: 2, Bucket: "tpch", Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	db, err := engine.Open(ds.Bucket, engine.WithBackend("inproc", s3api.NewInProc(st)))
	if err != nil {
		t.Fatal(err)
	}
	base, _, err := Q17Baseline(db)
	if err != nil {
		t.Fatal(err)
	}
	opt, _, err := Q17Optimized(db)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := renderGolden(base), renderGolden(opt); got != want {
		t.Errorf("Q17Baseline answers\n%s\nQ17Optimized\n%s", got, want)
	}
	if len(base.Rows) != 1 || base.Rows[0][0].IsNull() {
		t.Errorf("Q17Baseline answers %v, want one row that is not NULL", base.Rows)
	}
}
