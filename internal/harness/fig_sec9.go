package harness

import (
	"context"
	"fmt"
	"math"

	"pushdowndb/internal/engine"
	"pushdowndb/internal/sqlparse"
	"pushdowndb/internal/tpch"
)

// TPCHColumnar ensures the TPC-H tables are also loaded in the columnar
// format ("<table>_col") and returns the scaled DB (Section IX's TPC-H-on-
// Parquet comparison).
func (env *Env) TPCHColumnar(ctx context.Context) (*engine.DB, error) {
	db, err := env.TPCH()(ctx) // ensures the store exists
	if err != nil {
		return nil, err
	}
	env.mu.Lock()
	defer env.mu.Unlock()
	if !env.tpchColumnar {
		if _, err := tpch.LoadColumnar(env.stores["tpch"], env.tpchSpec()); err != nil {
			return nil, err
		}
		env.tpchColumnar = true
	}
	return db, nil
}

// RunSec9TPCHFormats reproduces Section IX's closing observation: unlike
// the synthetic single-column scans of Fig. 11, the TPC-H queries see very
// limited benefit from the columnar format, because their scans touch many
// columns and the returned data is CSV-encoded either way. We compare
// representative pushdown scans from Q1 and Q6 over both layouts.
func RunSec9TPCHFormats(ctx context.Context, env *Env) (*Result, error) {
	res := &Result{
		ID:     "Sec9",
		Title:  "TPC-H pushdown scans: CSV vs Parquet(stand-in)",
		XLabel: "query scan",
		Notes:  []string{"the paper reports 'very limited (if any) performance advantage' for Parquet on TPC-H; both scans here are storage-scan-bound"},
	}
	cases := []struct {
		sql   string
		merge []sqlparse.AggFunc
	}{
		{
			sql: "SELECT SUM(l_extendedprice * l_discount) FROM S3Object WHERE " +
				"l_shipdate >= '1994-01-01' AND l_shipdate < '1995-01-01'" +
				" AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24",
			merge: []sqlparse.AggFunc{sqlparse.AggSum},
		},
		{
			sql: "SELECT SUM(l_quantity), SUM(l_extendedprice), COUNT(*) FROM S3Object" +
				" WHERE l_shipdate <= '1998-09-02'",
			merge: []sqlparse.AggFunc{sqlparse.AggSum, sqlparse.AggSum, sqlparse.AggCount},
		},
	}
	// scan is a series' call: the pushed aggregate over one layout, its
	// merged row as a one-row relation.
	scan := func(db *engine.DB, phase, table string, i int) call {
		return op(db, func(e *engine.Exec) (*engine.Relation, error) {
			row, err := e.SelectAgg(phase, e.NextStage(), table, cases[i].sql, cases[i].merge)
			return &engine.Relation{Rows: []engine.Row{row}}, err
		})
	}
	return res.sweep(ctx, env.TPCHColumnar, []string{"Q6 aggregate", "Q1 aggregate"}, func(db *engine.DB, i int) ([]series, check) {
		return []series{
				{name: "CSV", run: scan(db, "csv", "lineitem", i)},
				{name: "Parquet", run: scan(db, "columnar", "lineitem_col", i), note: scannedMB},
			}, func(rels []*engine.Relation) error { // the two layouts must agree on the answers
				for j, v := range rels[0].Rows[0] {
					a, _ := v.Num()
					b, _ := rels[1].Rows[0][j].Num()
					if math.Abs(a-b) > 1e-6*a+1e-6 {
						return fmt.Errorf("item %d: CSV %v != columnar %v", j, a, b)
					}
				}
				return nil
			}
	})
}
