package engine

import (
	"cmp"
	"context"
	"fmt"
	"strings"

	"pushdowndb/internal/obs"
	"pushdowndb/internal/sqlparse"
	"pushdowndb/internal/value"
)

// EXPLAIN [ANALYZE] execution. Plain EXPLAIN renders the planner's
// estimates without running the query; ANALYZE executes it under an obs
// trace and annotates every plan step with what actually happened —
// estimated vs. actual rows, bytes and cost. The render is deterministic
// except for the single wall-clock line (golden tests mask it), because it
// is built from the plan steps and the cloudsim phase table, not from the
// concurrently-ordered raw span tree.

// runExplain executes an EXPLAIN statement. Plain EXPLAIN returns the
// estimate render and no execution (nothing was metered); ANALYZE returns
// the annotated render together with the Exec that ran the query, so
// runtime and billing ride the server wire like any SELECT's.
func (db *DB) runExplain(ctx context.Context, ex *sqlparse.Explain) (*Relation, *Exec, error) {
	render := db.explainSelect
	if ex.Analyze {
		render = db.analyze
	}
	text, e, err := render(ctx, ex.Sel)
	if err != nil {
		return nil, nil, err
	}
	return textRelation(text), e, nil
}

// analyze runs sel and renders its EXPLAIN ANALYZE report. It always runs
// traced: under the caller's trace (the daemon attaches one per request) or
// a private one.
func (db *DB) analyze(ctx context.Context, sel *sqlparse.Select) (string, *Exec, error) {
	if obs.FromContext(ctx) == nil {
		ctx = obs.WithTrace(ctx, obs.New("explain", "query"))
	}
	rel, e, err := db.runSelectStatement(ctx, sel)
	if err != nil {
		return "", nil, err
	}
	return renderAnalyze(sel, rel, e), e, nil
}

// textRelation wraps a multi-line render as a one-column relation, so
// EXPLAIN output flows through every surface (pushdownsql, the server
// wire) that already knows how to carry rows.
func textRelation(text string) *Relation {
	rel := &Relation{Cols: []string{"plan"}}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		rel.Rows = append(rel.Rows, Row{value.Str(line)})
	}
	return rel
}

// renderAnalyze builds the EXPLAIN ANALYZE report from the executed plan
// and its metrics.
func renderAnalyze(sel *sqlparse.Select, rel *Relation, e *Exec) string {
	var b strings.Builder
	b.WriteString("EXPLAIN ANALYZE\n")
	if p := e.QueryPlan(); p != nil {
		b.WriteString(p.String())
	} else {
		renderAnalyzeSingle(&b, sel, rel, e)
	}
	b.WriteString("phases:\n")
	for _, line := range strings.Split(strings.TrimRight(e.Metrics.Report(), "\n"), "\n") {
		b.WriteString("  " + line + "\n")
	}
	_, _, retBytes, getBytes := e.Metrics.Totals()
	cost := e.Cost()
	fmt.Fprintf(&b, "totals: %d rows, %d bytes returned, %.3fs virtual, %s\n",
		len(rel.Rows), retBytes+getBytes, e.RuntimeSeconds(), cost)
	fmt.Fprintf(&b, "wall: %s\n", wallOf(e))
	return b.String()
}

// renderAnalyzeSingle annotates a single-table query: the access strategy
// that ran, what its pushed tail brought back and whether that was trusted,
// the chosen candidate's estimate beside the statement's actuals, and the
// output.
func renderAnalyzeSingle(b *strings.Builder, sel *sqlparse.Select, rel *Relation, e *Exec) {
	ap := e.Access()
	if ap == nil {
		fmt.Fprintf(b, "scan %s: %s\n", sel.Table, pushedScan(sel, nil))
		fmt.Fprintf(b, "  actual: %d rows out\n", len(rel.Rows))
		return
	}
	b.WriteString(ap.String())
	if ap.Pushed != "" {
		check := "its check held"
		if ap.Fallback != "" {
			check = "its check failed (" + ap.Fallback + "): reran on the plain filtered path"
		}
		fmt.Fprintf(b, "  rows back: est ~%d, actual %d; %s\n", ap.EstRows, ap.ActualRows, check)
	}
	if est, ok := ap.Estimates[cmp.Or(ap.Pushed, ap.Strategy)]; ok {
		fmt.Fprintf(b, "  cost:   est %.3fs $%.6f, actual %.3fs $%.6f\n",
			est.Seconds, est.USD, e.RuntimeSeconds(), e.Cost().Total())
	}
	fmt.Fprintf(b, "  actual: %d rows out\n", len(rel.Rows))
}

// wallOf renders the traced query's wall-clock duration; "n/a" when the
// execution ran untraced (EXPLAIN ANALYZE always traces, but the render is
// also reachable from tests that build an Exec directly).
func wallOf(e *Exec) string {
	d := e.Trace().Snapshot()
	if d == nil || d.Root == nil {
		return "n/a"
	}
	return fmt.Sprintf("%.3fms", float64(d.Root.DurUS)/1000)
}
