package engine

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"pushdowndb/internal/sqlparse"
	"pushdowndb/internal/store"
)

// CheckPlanAgreement pins that EXPLAIN, execution and EXPLAIN ANALYZE read
// one plan. Each runs sql on a fresh DB from open, so no run warms another's
// caches. EXPLAIN prints the plan execution builds, rendered before it runs;
// EXPLAIN ANALYZE prints that plan rendered after it ran; and EXPLAIN's Exec
// holds its planning phases and nothing else — the same requests and the
// same virtual seconds as the executed statement's "plan *" phases.
func CheckPlanAgreement(t testing.TB, what string, open func() *DB, sql string) {
	t.Helper()
	ctx := context.Background()
	explained, pe, err := open().ExecStatement(ctx, "EXPLAIN "+sql)
	if err != nil {
		t.Fatalf("%s: EXPLAIN: %v", what, err)
	}

	// The statement as QueryContext runs it (runSelectStatement: planSelect,
	// then runPlan), its plan rendered on either side of the run.
	sel, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	e := open().NewExecContext(ctx)
	p, err := e.planSelect(sel, "")
	if err != nil {
		t.Fatalf("%s: planning: %v", what, err)
	}
	before := p.String()
	rel, err := e.runPlan(p)
	if err != nil {
		t.Fatalf("%s: running: %v", what, err)
	}
	after := p.String()
	qrel, qe, err := open().QueryContext(ctx, sql)
	if err != nil {
		t.Fatalf("%s: QueryContext: %v", what, err)
	}
	if render(qrel, false) != render(rel, false) || qe.Metrics.Report() != e.Metrics.Report() {
		t.Fatalf("%s: planned then run is not what QueryContext runs:\n%s\n%s", what, e.Metrics.Report(), qe.Metrics.Report())
	}

	if got := relText(explained); got != before {
		t.Errorf("%s: EXPLAIN prints\n%s\nthe executed plan, before it ran, is\n%s", what, got, before)
	}
	analyzed, _, err := open().ExecStatement(ctx, "EXPLAIN ANALYZE "+sql)
	if err != nil {
		t.Fatalf("%s: EXPLAIN ANALYZE: %v", what, err)
	}
	body, _, _ := strings.Cut(strings.TrimPrefix(relText(analyzed), "EXPLAIN ANALYZE\n"), "phases:\n")
	if body != after {
		t.Errorf("%s: EXPLAIN ANALYZE prints\n%s\nthe executed plan, after it ran, is\n%s", what, body, after)
	}

	for _, ph := range pe.Metrics.Phases() {
		if !strings.HasPrefix(ph.Name, "plan ") {
			t.Errorf("%s: EXPLAIN ran phase %q", what, ph.Name)
		}
	}
	if got, want := planPhases(pe), planPhases(qe); got != want {
		t.Errorf("%s: EXPLAIN planned with\n%s\nthe executed statement with\n%s", what, got, want)
	}
}

// planPhases renders an execution's "plan *" phases in stage and name
// order: each one's report row (requests and bytes) and its exact virtual
// seconds.
func planPhases(e *Exec) string {
	var lines []string
	for _, line := range strings.Split(e.Metrics.Report(), "\n") {
		if strings.HasPrefix(line, "plan ") {
			lines = append(lines, line)
		}
	}
	for _, ph := range e.Metrics.Phases() {
		if strings.HasPrefix(ph.Name, "plan ") {
			lines = append(lines, fmt.Sprintf("%d %s %v", ph.Stage, ph.Name, ph.Seconds()))
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// TestPlanAgreement runs CheckPlanAgreement over pushStatements, CSV and
// colformat, and an IndexScan statement. TestPlanAgreementTPCH covers the
// TPC-H goldens.
func TestPlanAgreement(t *testing.T) {
	for _, columnar := range []bool{false, true} {
		st := store.New()
		loadPush(t, st, "n", nastyHeader, nastyKinds, nastyRows(), 3, columnar)
		open := func() *DB { return openOver(t, pushBucket, st, pushScale) }
		for _, q := range pushStatements {
			CheckPlanAgreement(t, fmt.Sprintf("columnar=%v %s", columnar, q.sql), open, fmt.Sprintf(q.sql, "n"))
		}
	}

	st := newIndexStore(t)
	if err := openIndexDB(t, st).CreateIndex(context.Background(), "wide", "v"); err != nil {
		t.Fatal(err)
	}
	const sql = "SELECT k FROM wide WHERE v = 43"
	CheckPlanAgreement(t, sql, func() *DB { return openIndexDB(t, st) }, sql)
	if _, e, err := openIndexDB(t, st).QueryContext(context.Background(), sql); err != nil || accessOf(e).Strategy != StrategyIndexScan {
		t.Errorf("%s: want an IndexScan: %v", sql, err)
	}
}
