package tpch

import (
	"context"
	"os"
	"regexp"
	"strings"
	"testing"

	"pushdowndb/internal/engine"
)

// EXPLAIN ANALYZE golden for TPC-H Q3: the full annotated render —
// estimated vs. actual rows, per-step cost and bytes, the phase table and
// the billing totals — is pinned byte-for-byte. Everything in the render
// is virtual-clock deterministic except the single trailing wall line,
// which is masked before comparison.
//
// Regenerate with: go test ./internal/tpch -run TestExplainAnalyzeQ3Golden -update

var wallLine = regexp.MustCompile(`(?m)^wall: .*$`)

func TestExplainAnalyzeQ3Golden(t *testing.T) {
	db, _ := goldenDB(t)
	var q3 string
	for _, q := range goldenQueries {
		if q.name == "q3" {
			q3 = q.sql
		}
	}
	if q3 == "" {
		t.Fatal("q3 missing from goldenQueries")
	}
	text, e, err := explainAnalyze(context.Background(), db, q3)
	if err != nil {
		t.Fatal(err)
	}
	// Sanity on the annotations before golden comparison: estimates AND
	// actuals on every join step.
	for _, want := range []string{"join plan (3 tables)", "rows:   est ~", "cost:   est", "bytes:  actual", "phases:", "totals:"} {
		if !strings.Contains(text, want) {
			t.Fatalf("render missing %q:\n%s", want, text)
		}
	}
	for i, st := range e.QueryPlan().Steps {
		if st.ActualRows < 0 || st.ActualSec <= 0 {
			t.Errorf("step %d actuals not filled: rows=%d sec=%v", i+1, st.ActualRows, st.ActualSec)
		}
	}

	got := wallLine.ReplaceAllString(text, "wall: <masked>")
	path := goldenPath("q3_explain")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("EXPLAIN ANALYZE drifted from golden\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// explain runs EXPLAIN sql as a statement and returns its render, a line
// per row.
func explain(ctx context.Context, db *engine.DB, sql string) (string, error) {
	text, _, err := explainStatement(ctx, db, "EXPLAIN "+sql)
	return text, err
}

// explainAnalyze runs EXPLAIN ANALYZE sql as a statement and returns its
// render, a line per row, and the Exec that ran it.
func explainAnalyze(ctx context.Context, db *engine.DB, sql string) (string, *engine.Exec, error) {
	return explainStatement(ctx, db, "EXPLAIN ANALYZE "+sql)
}

func explainStatement(ctx context.Context, db *engine.DB, stmt string) (string, *engine.Exec, error) {
	rel, e, err := db.ExecStatement(ctx, stmt)
	if err != nil {
		return "", nil, err
	}
	var b strings.Builder
	for _, row := range rel.Rows {
		b.WriteString(row[0].AsString())
		b.WriteByte('\n')
	}
	return b.String(), e, nil
}
