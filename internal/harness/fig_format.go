package harness

import (
	"context"
	"fmt"
)

// Fig11Selectivities is the paper's x-axis (fraction of rows returned).
var Fig11Selectivities = []float64{0, 0.01, 0.1, 0.5, 1}

// Fig11ColumnCounts is the paper's three table widths.
var Fig11ColumnCounts = []int{1, 10, 20}

// RunFig11 reproduces Fig. 11: filter runtime over CSV vs columnar
// ("Parquet" stand-in) tables of 1, 10 and 20 float columns, returning a
// single filtered column. The c1 values are uniform in [0,1), so the
// predicate c1 < x has selectivity exactly x.
func RunFig11(ctx context.Context, env *Env) (*Result, error) {
	res := &Result{
		ID:     "Fig11",
		Title:  "CSV vs Parquet(stand-in) filter scans",
		XLabel: "selectivity",
	}
	for _, cols := range Fig11ColumnCounts {
		db, err := env.FloatTables(ctx, cols)
		if err != nil {
			return nil, err
		}
		for _, sel := range Fig11Selectivities {
			x := fmt.Sprintf("%g", sel)
			sql := fmt.Sprintf("SELECT c1 FROM S3Object WHERE c1 < %.4f", sel)

			e1 := db.NewExecContext(ctx)
			csvRel, err := e1.SelectRows("csv scan", e1.NextStage(), "fcsv", sql)
			if err != nil {
				return nil, err
			}
			res.add(fmt.Sprintf("CSV %d-col", cols), x, e1, nil)

			e2 := db.NewExecContext(ctx)
			colRel, err := e2.SelectRows("columnar scan", e2.NextStage(), "fcol", sql)
			if err != nil {
				return nil, err
			}
			_, scanned, _, _ := e2.Metrics.Totals()
			res.add(fmt.Sprintf("Parquet %d-col", cols), x, e2,
				map[string]float64{"scannedMB": float64(scanned) / 1e6})

			if len(csvRel.Rows) != len(colRel.Rows) {
				return nil, fmt.Errorf("harness: Fig11 cols=%d sel=%s: CSV %d rows vs columnar %d",
					cols, x, len(csvRel.Rows), len(colRel.Rows))
			}
		}
	}
	res.Notes = append(res.Notes,
		"columnar results are still returned CSV-encoded (the paper's observed S3 Select behaviour), so transfer-bound points converge")
	return res, nil
}
