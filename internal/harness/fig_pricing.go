package harness

import (
	"context"
	"fmt"

	"pushdowndb/internal/cloudsim"
	"pushdowndb/internal/engine"
)

// RunS5Pricing is the Suggestion-5 ablation: re-price representative
// scan-heavy queries under computation-aware pricing, where a scan's
// per-GB charge reflects how much storage-side computation it actually
// performed. The paper argues flat per-GB scan pricing overcharges simple
// queries (Section X, Suggestion 5: "data scan costs dominate a majority
// of queries ... the current pricing model may have overcharged").
func RunS5Pricing(ctx context.Context, env *Env) (*Result, error) {
	db, err := env.TPCH()(ctx)
	if err != nil {
		return nil, err
	}
	capPricing := cloudsim.DefaultComputationAwarePricing()
	res := &Result{
		ID:     "S5",
		Title:  "Flat vs computation-aware scan pricing (Suggestion 5)",
		XLabel: "query",
		Notes:  []string{"computation-aware pricing discounts light scans; heavy expressions (large Bloom filters) converge to list price"},
	}
	// One execution per case, priced twice: this figure sweeps the price
	// list, not the call.
	for _, c := range []struct {
		name  string
		nodes float64 // approximate expression nodes evaluated per row
		run   call
	}{
		{"plain projection", 2, forced(db, engine.StrategyFiltered, "SELECT l_orderkey FROM lineitem")},
		{"simple filter", 7, forced(db, engine.StrategyFiltered, "SELECT l_orderkey, l_quantity FROM lineitem WHERE l_quantity < 10")},
		{"bloom probe", 95, listing2(db, listing2SQL("-950", ""), engine.StrategyBloom, 0.01)},
	} {
		_, e, err := c.run(ctx)
		if err != nil {
			return nil, fmt.Errorf("harness: S5 %s: %w", c.name, err)
		}
		flat := e.Cost()
		aware := e.Metrics.CostComputationAware(capPricing, c.nodes)
		res.Points = append(res.Points,
			Point{Series: "Flat Pricing", X: c.name, RuntimeSec: e.RuntimeSeconds(), Cost: flat},
			Point{Series: "Computation-Aware", X: c.name, RuntimeSec: e.RuntimeSeconds(), Cost: aware,
				Extra: map[string]float64{"scanDiscountPct": 100 * (1 - aware.ScanUSD/maxPos(flat.ScanUSD))}})
	}
	return res, nil
}

func maxPos(x float64) float64 {
	if x <= 0 {
		return 1
	}
	return x
}
