package harness

import (
	"context"
	"fmt"

	"pushdowndb/internal/engine"
)

// Fig11Selectivities is the paper's x-axis (fraction of rows returned).
var Fig11Selectivities = []float64{0, 0.01, 0.1, 0.5, 1}

// Fig11ColumnCounts is the paper's three table widths.
var Fig11ColumnCounts = []int{1, 10, 20}

// scannedMB is the note of a columnar series: the bytes storage scanned,
// which column pruning shrinks.
func scannedMB(e *engine.Exec, _ *engine.Relation) (string, map[string]float64, error) {
	_, scanned, _, _ := e.Metrics.Totals()
	return "", map[string]float64{"scannedMB": float64(scanned) / 1e6}, nil
}

// RunFig11 reproduces Fig. 11: filter runtime over CSV vs columnar
// ("Parquet" stand-in) tables of 1, 10 and 20 float columns, returning a
// single filtered column. The c1 values are uniform in [0,1), so the
// predicate c1 < x has selectivity exactly x.
func RunFig11(ctx context.Context, env *Env) (*Result, error) {
	res := &Result{
		ID:     "Fig11",
		Title:  "CSV vs Parquet(stand-in) filter scans",
		XLabel: "selectivity",
		Notes:  []string{"columnar results are still returned CSV-encoded (the paper's observed S3 Select behaviour), so transfer-bound points converge"},
	}
	for _, cols := range Fig11ColumnCounts {
		if _, err := res.sweep(ctx, env.FloatTables(cols), labels("%g", Fig11Selectivities), func(db *engine.DB, i int) ([]series, check) {
			sql := fmt.Sprintf("SELECT c1 FROM S3Object WHERE c1 < %.4f", Fig11Selectivities[i])
			return []series{
				{name: fmt.Sprintf("CSV %d-col", cols), run: op(db, func(e *engine.Exec) (*engine.Relation, error) {
					return e.SelectRows("csv scan", e.NextStage(), "fcsv", sql)
				})},
				{name: fmt.Sprintf("Parquet %d-col", cols), note: scannedMB, run: op(db, func(e *engine.Exec) (*engine.Relation, error) {
					return e.SelectRows("columnar scan", e.NextStage(), "fcol", sql)
				})},
			}, sameRows
		}); err != nil {
			return nil, err
		}
	}
	return res, nil
}
