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

// EXPLAIN [ANALYZE] execution. Both plan the statement into its QueryPlan
// as a SELECT does. Plain EXPLAIN renders the planner's estimates without
// running the query; ANALYZE executes it under an obs trace and annotates
// every plan step with what actually happened — estimated vs. actual rows,
// bytes and cost. The render is deterministic except for the single
// wall-clock line (golden tests mask it), because it is built from the plan
// and the cloudsim phase table, not from the concurrently-ordered raw span
// tree.

// runExplain executes an EXPLAIN statement. It returns the render together
// with the Exec that planned (and, for ANALYZE, ran) the statement, so the
// planner's requests are billed like any SELECT's, error or not.
func (db *DB) runExplain(ctx context.Context, ex *sqlparse.Explain) (*Relation, *Exec, error) {
	if ex.Analyze {
		return db.analyze(ctx, ex.Sel)
	}
	e := db.NewExecContext(ctx)
	p, err := e.planSelect(ex.Sel, "")
	if err != nil {
		return nil, e, err
	}
	return textRelation(p.String()), e, nil
}

// analyze runs sel and renders its EXPLAIN ANALYZE report. It always runs
// traced: under the caller's trace (the daemon attaches one per request) or
// a private one.
func (db *DB) analyze(ctx context.Context, sel *sqlparse.Select) (*Relation, *Exec, error) {
	if obs.FromContext(ctx) == nil {
		ctx = obs.WithTrace(ctx, obs.New("explain", "query"))
	}
	rel, e, err := db.runSelectStatement(ctx, sel, "")
	if err != nil {
		return nil, e, err
	}
	return textRelation(renderAnalyze(rel, e)), e, nil
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
func renderAnalyze(rel *Relation, e *Exec) string {
	var b strings.Builder
	b.WriteString("EXPLAIN ANALYZE\n")
	b.WriteString(e.QueryPlan().String())
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

// writeScan renders a single-table plan: its access decision, when it had
// one to make; then, before the run, how the statement executes — what
// storage is sent and the server-side tail — or, after it, what the pushed
// tail brought back and whether that was trusted, the chosen candidate's
// estimate beside the statement's actuals, and the output. The result-cache
// residency note is EXPLAIN's alone, read when the plan is printed.
func (p *QueryPlan) writeScan(b *strings.Builder) {
	sel, sc := p.Sel, p.Scans[0]
	ap := sc.Access
	if ap != nil {
		sc.writeAccess(b)
	}
	if p.ran {
		switch {
		case ap == nil:
			fmt.Fprintf(b, "scan %s: %s\n", sel.Table, sc.req.SQL)
		case ap.Pushed != "":
			check := "its check held"
			if ap.Fallback != "" {
				check = "its check failed (" + ap.Fallback + "): reran on the plain filtered path"
			}
			fmt.Fprintf(b, "  rows back: est ~%d, actual %d; %s\n", ap.EstRows, ap.ActualRows, check)
		}
		if ap != nil {
			if est, ok := ap.Estimates[cmp.Or(ap.Pushed, ap.Strategy)]; ok {
				fmt.Fprintf(b, "  cost:   est %.3fs $%.6f, actual %.3fs $%.6f\n",
					est.Seconds, est.USD, p.exec.RuntimeSeconds(), p.exec.Cost().Total())
			}
		}
		fmt.Fprintf(b, "  actual: %d rows out\n", p.rows)
		return
	}
	req := sc.req // what a filtered plan sends; an IndexScan or a baseline prints no request
	switch _, why := p.exec.db.pushableShape(sel); {
	case ap != nil && ap.Pushed != "":
		req = ap.push.req
	case ap == nil && why != "":
		fmt.Fprintf(b, "not pushed beyond selection + projection: %s\n", why)
	}
	// With a result cache configured, how much of the scan really pushed is
	// already resident, so a warm repeat's near-zero storage bill is visible
	// before running.
	cached := ""
	if frac := p.exec.cachedScanFrac(sel.Table, req); frac > 0 {
		cached = fmt.Sprintf("  [cached scan %.0f%%]", 100*frac)
	}
	switch {
	case ap != nil && ap.Strategy == StrategyIndexScan:
		fmt.Fprintf(b, "IndexScan: probe index %s(%s), fetch ~%d ranges in ~%d multi-range GETs, re-filter %s locally\n",
			sel.Table, sc.Index.Entry.Column, ap.EstRanges, ap.EstRangedGets, sel.Where.String())
	case ap != nil && ap.Strategy == StrategyBaseline:
		fmt.Fprintf(b, "server-side baseline: GET every partition of %s, filter %s locally\n",
			sel.Table, sel.Where.String())
	case isSimple(sel):
		fmt.Fprintf(b, "S3 Select (full pushdown): %s%s\n", sel.String(), cached)
		return
	case ap != nil && ap.Pushed != "":
		fmt.Fprintf(b, "S3 Select (%s pushdown): %s%s\n", ap.Pushed, req.SQL, cached)
		if len(sel.GroupBy) > 0 {
			b.WriteString("server: merge the partitions' rows, check that every filtered row fell in exactly one group\n")
		}
	default:
		fmt.Fprintf(b, "S3 Select (selection+projection pushdown): %s%s\n", req.SQL, cached)
	}
	writeLocalTail(b, "", sel)
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
