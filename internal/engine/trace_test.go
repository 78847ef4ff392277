package engine

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"pushdowndb/internal/obs"
)

// Span-tree shape tests: a traced query must produce a tree whose
// structure mirrors the execution (statement → plan → per-step joins →
// scans → decode → local operators) and whose row counts match the
// relation the query actually returned.

// threeTableDB builds the planner_test three-table fixture: cust(ck,bal),
// ords(ok,ck,price) from newTestDB plus items(iok,qty), at deployment
// scale so the planner picks pushdown strategies.
func threeTableDB(t *testing.T) (*DB, string) {
	t.Helper()
	db, st := newTestDB(t)
	var items [][]string
	for i := 0; i < 400; i++ {
		items = append(items, []string{intStr(i), intStr(i % 7)})
	}
	if err := PartitionTable(context.Background(), st, testBucket, "items", []string{"iok", "qty"}, items, 2); err != nil {
		t.Fatal(err)
	}
	db.Sim = bigSim()
	sql := "SELECT COUNT(*) AS n, SUM(i.qty) AS q FROM cust c JOIN ords o ON c.ck = o.ck JOIN items i ON o.ok = i.iok WHERE c.bal <= -500"
	return db, sql
}

// spansWithPrefix collects every span whose name starts with the prefix.
func spansWithPrefix(d *obs.TraceData, prefix string) []*obs.SpanData {
	var out []*obs.SpanData
	d.Walk(func(sp *obs.SpanData, _ int) {
		if strings.HasPrefix(sp.Name, prefix) {
			out = append(out, sp)
		}
	})
	return out
}

func TestTraceThreeTableJoinShape(t *testing.T) {
	db, sql := threeTableDB(t)
	tr := obs.New("t1", "query")
	rel, e, err := db.QueryContext(obs.WithTrace(context.Background(), tr), sql)
	if err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	d := tr.Snapshot()

	// The statement span is the root's only child and carries the final
	// row count of the relation handed back to the caller.
	if n := len(d.Root.Children); n != 1 {
		t.Fatalf("root has %d children, want 1 (the statement span)", n)
	}
	sel := d.Root.Children[0]
	if sel.Name != "select" {
		t.Fatalf("statement span = %q, want select", sel.Name)
	}
	if rows, ok := sel.Int("rows"); !ok || rows != int64(len(rel.Rows)) {
		t.Errorf("select rows attr = %d (ok=%v), want %d", rows, ok, len(rel.Rows))
	}

	// Planning: a plan span over, per joined table, the statistics-object
	// GET and then the estimate from its sample.
	if sel.Find("plan") == nil {
		t.Error("no plan span under the statement")
	}
	var gets, estimates int
	for _, sp := range spansWithPrefix(d, "plan stats ") {
		bytes, _ := sp.Int("bytes")
		rows, _ := sp.Int("sample_rows")
		if bytes <= 0 || rows <= 0 {
			t.Errorf("%s: bytes=%d sample_rows=%d, want both set", sp.Name, bytes, rows)
		}
		if source, ok := sp.Str("source"); ok {
			estimates++
			if _, ok := sp.Int("matched"); !ok || source != StatsFromObject {
				t.Errorf("%s: source=%q, matched set: %v", sp.Name, source, ok)
			}
		} else {
			gets++
		}
	}
	if gets != 3 || estimates != 3 {
		t.Errorf("plan stats spans: %d GETs and %d estimates, want 3 and 3 (one per table)", gets, estimates)
	}

	// One join span per plan step, named in step order, carrying the
	// chosen strategy and the step's actual output rows.
	plan := e.QueryPlan()
	if plan == nil || len(plan.Steps) != 2 {
		t.Fatalf("plan = %+v, want 2 steps", plan)
	}
	for i, st := range plan.Steps {
		jsp := sel.Find(fmt.Sprintf("join %d", i+1))
		if jsp == nil {
			t.Fatalf("no span for join step %d", i+1)
		}
		if got, _ := jsp.Str("strategy"); got != st.Strategy {
			t.Errorf("join %d strategy attr = %q, want %q", i+1, got, st.Strategy)
		}
		if rows, ok := jsp.Int("rows"); !ok || rows != st.ActualRows {
			t.Errorf("join %d rows attr = %d (ok=%v), want %d", i+1, rows, ok, st.ActualRows)
		}
		// A join step meters no phase of its own: it carries its actuals,
		// not a phase's sim_sec.
		if sec, ok := jsp.Float("actual_sec"); !ok || sec != st.ActualSec {
			t.Errorf("join %d actual_sec attr = %v (ok=%v), want %v", i+1, sec, ok, st.ActualSec)
		}
		if _, ok := jsp.Float("sim_sec"); ok {
			t.Errorf("join %d carries sim_sec, which is a metered step's", i+1)
		}
	}

	// Scans: per-partition select spans with byte counts, and at least one
	// decode span where S3 Select output became a relation.
	parts := spansWithPrefix(d, "select ")
	if len(parts) == 0 {
		t.Error("no per-partition select spans")
	}
	var partBytes int64
	for _, sp := range parts {
		b, _ := sp.Int("bytes")
		partBytes += b
	}
	if partBytes <= 0 {
		t.Errorf("partition select spans carried %d bytes, want > 0", partBytes)
	}
	if len(spansWithPrefix(d, "decode")) == 0 {
		t.Error("no decode span")
	}

	// Local operators nest under a "local" span (the aggregate finisher).
	loc := sel.Find("local")
	if loc == nil {
		t.Fatal("no local span for the finishing operators")
	}
	if loc.Find("aggregate") == nil && loc.Find("groupby") == nil {
		t.Error("no aggregate/groupby operator span under local")
	}

	// Every span must have ended (non-negative duration measured at
	// Finish, not left dangling at snapshot time).
	d.Walk(func(sp *obs.SpanData, _ int) {
		if sp.DurUS < 0 {
			t.Errorf("span %q has negative duration %d", sp.Name, sp.DurUS)
		}
	})
}

// TestTraceGroupedScanShape: a grouped scan's trace keeps the names the
// layer breakdown classifies by. The typed decode is one "decode" span per
// partition under the scan, the fold a groupby operator span under "local",
// and the cardinalities are attributes: rows in, groups out.
func TestTraceGroupedScanShape(t *testing.T) {
	db, _ := newTestDB(t)
	tr := obs.New("t", "query")
	rel, _, err := db.QueryContext(obs.WithTrace(context.Background(), tr),
		"SELECT g, COUNT(*) AS n, SUM(v) AS s FROM events WHERE k < 900 GROUP BY g ORDER BY g")
	if err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	scan := tr.Snapshot().Find("scan events")
	if scan == nil {
		t.Fatal("no scan span")
	}
	var decoded int64
	for _, dec := range scan.FindAll("decode") {
		n, _ := dec.Int("rows")
		decoded += n
	}
	if parts := len(scan.FindAll("decode")); parts != 4 || decoded != 900 {
		t.Errorf("%d decode spans over %d rows, want one per partition (4) over 900", parts, decoded)
	}
	loc := tr.Snapshot().Find("local")
	if loc == nil || loc.Find("groupby") == nil {
		t.Fatalf("no local > groupby spans: %v", tr.Snapshot().Tree())
	}
	if in, _ := loc.Int("rows_in"); in != 900 {
		t.Errorf("local rows_in = %d, want 900", in)
	}
	if groups, ok := loc.Int("groups"); !ok || groups != int64(len(rel.Rows)) || groups != 10 {
		t.Errorf("local groups = %d (ok=%v), want the %d groups returned (10)", groups, ok, len(rel.Rows))
	}
	op := loc.Find("groupby")
	if path, _ := op.Str("path"); path != "vec" {
		t.Errorf("groupby path = %q, want vec", path)
	}
	if in, _ := op.Int("rows_in"); in != 900 {
		t.Errorf("groupby rows_in = %d, want 900", in)
	}
}

// TestTraceConcurrentIsolation runs 8 traced queries at once against one
// DB and checks that no span leaks into the wrong trace: simple scans must
// never grow join spans, joins must keep theirs, and every statement span
// must report its own query's row count. Run under -race in CI.
func TestTraceConcurrentIsolation(t *testing.T) {
	db, joinSQL := threeTableDB(t)
	scanSQL := "SELECT COUNT(*) AS n FROM events WHERE v >= 0"

	type result struct {
		d    *obs.TraceData
		rows int
		join bool
	}
	results := make([]result, 8)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			join := i%2 == 1
			sql := scanSQL
			if join {
				sql = joinSQL
			}
			tr := obs.New(fmt.Sprintf("q%d", i), "query")
			rel, _, err := db.QueryContext(obs.WithTrace(context.Background(), tr), sql)
			if err != nil {
				t.Error(err)
				return
			}
			tr.Finish()
			results[i] = result{d: tr.Snapshot(), rows: len(rel.Rows), join: join}
		}(i)
	}
	wg.Wait()

	for i, r := range results {
		if r.d == nil {
			continue // query failed; already reported
		}
		if r.d.ID != fmt.Sprintf("q%d", i) {
			t.Errorf("trace %d carries id %q", i, r.d.ID)
		}
		if n := len(r.d.Root.Children); n != 1 {
			t.Errorf("trace %d: root has %d children, want 1", i, n)
			continue
		}
		sel := r.d.Root.Children[0]
		if rows, ok := sel.Int("rows"); !ok || rows != int64(r.rows) {
			t.Errorf("trace %d: rows attr = %d (ok=%v), want %d", i, rows, ok, r.rows)
		}
		hasJoin := sel.Find("join 1") != nil
		if hasJoin != r.join {
			t.Errorf("trace %d: join span present = %v, want %v — span tree interleaved", i, hasJoin, r.join)
		}
	}
}

// TestExplainAnalyzeThreeTable checks the ANALYZE render on a multi-join
// query: every plan step annotated with estimated and actual rows, cost
// and bytes, followed by the phase table and totals.
func TestExplainAnalyzeThreeTable(t *testing.T) {
	db, sql := threeTableDB(t)
	text, e, err := db.ExplainAnalyze(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	if e == nil {
		t.Fatal("ExplainAnalyze returned no Exec")
	}
	for _, want := range []string{
		"EXPLAIN ANALYZE",
		"join plan (3 tables)",
		"join 1:", "join 2:",
		"strategy:",
		"rows:   est ~",
		"cost:   est",
		"bytes:  actual",
		"phases:",
		"totals:",
		"wall: ",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("render missing %q:\n%s", want, text)
		}
	}
	// Actuals were filled in, not left at the zero value.
	for i, st := range e.QueryPlan().Steps {
		if st.ActualSec <= 0 {
			t.Errorf("step %d ActualSec = %v, want > 0", i+1, st.ActualSec)
		}
		if st.ActualBytes <= 0 {
			t.Errorf("step %d ActualBytes = %v, want > 0", i+1, st.ActualBytes)
		}
	}
}

// TestExplainStatement runs EXPLAIN / EXPLAIN ANALYZE through the normal
// statement path, the way pushdownsql and the daemon reach it.
func TestExplainStatement(t *testing.T) {
	db, sql := threeTableDB(t)

	rel, e, err := db.ExecStatement(context.Background(), "EXPLAIN "+sql)
	if err != nil {
		t.Fatal(err)
	}
	if e != nil {
		t.Error("plain EXPLAIN must not execute (want nil Exec)")
	}
	if len(rel.Cols) != 1 || rel.Cols[0] != "plan" {
		t.Fatalf("EXPLAIN cols = %v", rel.Cols)
	}
	plain := relText(rel)
	if !strings.Contains(plain, "join plan (3 tables)") {
		t.Errorf("EXPLAIN render:\n%s", plain)
	}
	if strings.Contains(plain, "actual") {
		t.Errorf("plain EXPLAIN leaked actuals:\n%s", plain)
	}

	rel, e, err = db.ExecStatement(context.Background(), "EXPLAIN ANALYZE "+sql)
	if err != nil {
		t.Fatal(err)
	}
	if e == nil {
		t.Fatal("EXPLAIN ANALYZE must execute (want non-nil Exec)")
	}
	analyzed := relText(rel)
	if !strings.Contains(analyzed, "rows:   est ~") || !strings.Contains(analyzed, "wall: ") {
		t.Errorf("EXPLAIN ANALYZE render:\n%s", analyzed)
	}
}

func relText(rel *Relation) string {
	var b strings.Builder
	for _, r := range rel.Rows {
		b.WriteString(r[0].AsString())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestUntracedQueryNoSpans pins the zero-overhead contract: without a
// trace in context the query must not allocate any span machinery.
func TestUntracedQueryNoSpans(t *testing.T) {
	db, sql := threeTableDB(t)
	_, e, err := db.QueryContext(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	if e.Trace() != nil {
		t.Error("untraced query grew a trace")
	}
	if e.Trace().Snapshot() != nil {
		t.Error("nil trace snapshot must be nil")
	}
}
