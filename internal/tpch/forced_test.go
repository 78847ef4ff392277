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

// TestForcedBaselineMatchesTheGoldens pins the planner's baseline path for
// grouped statements, whose rows fold into their aggregation blocks as
// each partition decodes: Q1's and Q6's SQL forced onto the baseline
// access answer the hand Baselines' goldens over CSV and colformat tables,
// at the virtual runtime and cost the load-then-group-by path billed, bit
// for bit (a float's %v is its shortest exact rendering).
func TestForcedBaselineMatchesTheGoldens(t *testing.T) {
	bills := map[string]string{
		"csv base_q1":       "0.02692332 cloudsim.CostBreakdown{ComputeUSD:1.59146736e-05, RequestUSD:1.6000000000000001e-06, ScanUSD:0, TransferUSD:0}",
		"csv base_q6":       "0.024594920000000003 cloudsim.CostBreakdown{ComputeUSD:1.453833048888889e-05, RequestUSD:1.6000000000000001e-06, ScanUSD:0, TransferUSD:0}",
		"colformat base_q1": "0.012483789600000001 cloudsim.CostBreakdown{ComputeUSD:7.379306741333334e-06, RequestUSD:1.6000000000000001e-06, ScanUSD:0, TransferUSD:0}",
		"colformat base_q6": "0.0101553896 cloudsim.CostBreakdown{ComputeUSD:6.002963630222222e-06, RequestUSD:1.6000000000000001e-06, ScanUSD:0, TransferUSD:0}",
	}
	for _, format := range []string{"csv", "colformat"} {
		st := store.New()
		ds := Dataset{SF: 0.002, Seed: 42, Bucket: "tpch", Partitions: 4}
		var err error
		if format == "csv" {
			_, err = Load(context.Background(), st, ds)
		} else {
			_, err = LoadColumnar(st, ds)
		}
		if err != nil {
			t.Fatal(err)
		}
		db, err := engine.Open(ds.Bucket, engine.WithBackend("inproc", s3api.NewInProc(st)))
		if err != nil {
			t.Fatal(err)
		}
		for name, sql := range map[string]string{"base_q1": q1SQL, "base_q6": q6SQL} {
			if format == "colformat" {
				sql = strings.Replace(sql, "FROM lineitem", "FROM lineitem_col", 1)
			}
			t.Run(format+" "+name, func(t *testing.T) {
				rel, e, err := db.QueryForced(context.Background(), sql, engine.StrategyBaseline)
				if err != nil {
					t.Fatal(err)
				}
				checkGolden(t, name, rel)
				if got, want := fmt.Sprintf("%v %#v", e.RuntimeSeconds(), e.Cost()), bills[format+" "+name]; got != want {
					t.Errorf("billed %s, want %s", got, want)
				}
			})
		}
	}
}
