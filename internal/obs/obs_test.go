package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestNilTraceIsNoOp(t *testing.T) {
	var tr *Trace
	if tr.ID() != "" || tr.Root() != nil {
		t.Fatalf("nil trace leaked state")
	}
	tr.Finish()
	var sp *Span
	c := sp.Child("x")
	if c != nil {
		t.Fatalf("nil span child = %v, want nil", c)
	}
	c.End()
	c.SetInt("rows", 1)
	c.SetFloat("sec", 1)
	c.SetStr("k", "v")
	c.AddInt("rows", 1)
	if tr.Snapshot() != nil {
		t.Fatalf("nil trace snapshot non-nil")
	}
}

func TestContextRoundTrip(t *testing.T) {
	ctx := context.Background()
	if FromContext(ctx) != nil {
		t.Fatalf("empty context carried a trace")
	}
	if WithTrace(ctx, nil) != ctx {
		t.Fatalf("attaching nil should return ctx unchanged")
	}
	tr := New("q-1", "query")
	got := FromContext(WithTrace(ctx, tr))
	if got != tr {
		t.Fatalf("round trip lost the trace")
	}
}

func TestSpanTreeAndSnapshot(t *testing.T) {
	tr := New("q-2", "query")
	sel := tr.Root().Child("select")
	scan := sel.Child("scan part")
	scan.SetInt("rows", 42)
	scan.AddInt("bytes", 100)
	scan.AddInt("bytes", 28)
	scan.SetStr("cache", "miss")
	scan.SetFloat("sim_sec", 0.5)
	scan.End()
	dec := sel.Child("decode")
	dec.End()
	sel.End()
	tr.Finish()

	d := tr.Snapshot()
	if d.ID != "q-2" || d.Root.Name != "query" {
		t.Fatalf("root mismatch: %+v", d)
	}
	sp := d.Find("scan part")
	if sp == nil {
		t.Fatalf("scan span missing:\n%s", d.Tree())
	}
	if v, ok := sp.Int("rows"); !ok || v != 42 {
		t.Fatalf("rows = %d,%v", v, ok)
	}
	if v, ok := sp.Int("bytes"); !ok || v != 128 {
		t.Fatalf("bytes = %d,%v want 128", v, ok)
	}
	if s, ok := sp.Str("cache"); !ok || s != "miss" {
		t.Fatalf("cache = %q,%v", s, ok)
	}
	if f, ok := sp.Float("sim_sec"); !ok || f != 0.5 {
		t.Fatalf("sim_sec = %v,%v", f, ok)
	}
	if got := len(d.Find("select").Children); got != 2 {
		t.Fatalf("select children = %d, want 2", got)
	}
	if all := d.Root.FindAll("decode"); len(all) != 1 {
		t.Fatalf("FindAll decode = %d", len(all))
	}
	// Snapshot after the fact must be stable: mutate nothing, re-render.
	if !strings.Contains(d.Tree(), "cache=miss") {
		t.Fatalf("tree render lost attrs:\n%s", d.Tree())
	}
}

// A float func is read at Snapshot, so work metered after the span ended is
// in the figure; EndErr ends a span with its error recorded.
func TestFloatFuncReadsAtSnapshot(t *testing.T) {
	tr := New("q-f", "query")
	sec := 0.25
	sp := tr.Root().Child("scan")
	sp.SetFloatFunc("sim_sec", func() float64 { return sec })
	sp.EndErr(fmt.Errorf("boom"))
	sec = 0.75
	d := tr.Snapshot()
	got := d.Find("scan")
	if f, ok := got.Float("sim_sec"); !ok || f != 0.75 {
		t.Errorf("sim_sec = %v,%v; want the value at Snapshot, 0.75", f, ok)
	}
	if e, _ := got.Str("error"); e != "boom" {
		t.Errorf("error = %q, want boom", e)
	}
	if _, err := json.Marshal(d); err != nil {
		t.Errorf("snapshot with a float func does not marshal: %v", err)
	}
	var nilSpan *Span
	nilSpan.SetFloatFunc("x", func() float64 { return 1 })
	nilSpan.EndErr(fmt.Errorf("ignored"))
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	tr := New("q-3", "query")
	tr.Root().Child("scan").SetInt("rows", 7)
	tr.Finish()
	d := tr.Snapshot()

	var back TraceData
	if err := json.Unmarshal(d.JSON(), &back); err != nil {
		t.Fatalf("JSON round trip: %v", err)
	}
	sp := back.Find("scan")
	if sp == nil {
		t.Fatalf("scan missing after round trip")
	}
	if v, ok := sp.Int("rows"); !ok || v != 7 {
		t.Fatalf("rows after round trip = %d,%v", v, ok)
	}

	var events []map[string]any
	if err := json.Unmarshal(d.ChromeTrace(), &events); err != nil {
		t.Fatalf("chrome trace: %v", err)
	}
	if len(events) != 2 {
		t.Fatalf("chrome events = %d, want 2", len(events))
	}
	for _, ev := range events {
		if ev["ph"] != "X" || ev["cat"] != "query" {
			t.Fatalf("bad event %v", ev)
		}
	}
}

func TestConcurrentSpans(t *testing.T) {
	tr := New("q-4", "query")
	root := tr.Root()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sp := root.Child(fmt.Sprintf("part-%d", i))
			sp.AddInt("rows", int64(i))
			root.AddInt("total", 1)
			sp.End()
		}(i)
	}
	wg.Wait()
	tr.Finish()
	d := tr.Snapshot()
	if got := len(d.Root.Children); got != 16 {
		t.Fatalf("children = %d, want 16", got)
	}
	if v, _ := d.Root.Int("total"); v != 16 {
		t.Fatalf("total = %d, want 16", v)
	}
	d.Root.SortChildren()
	for i := 1; i < len(d.Root.Children); i++ {
		if d.Root.Children[i-1].Name > d.Root.Children[i].Name {
			t.Fatalf("SortChildren not sorted at %d", i)
		}
	}
}

func TestTraceLog(t *testing.T) {
	l := NewTraceLog(2)
	mk := func(id string) *TraceData {
		tr := New(id, "query")
		tr.Finish()
		return tr.Snapshot()
	}
	l.Add(mk("a"))
	l.Add(mk("b"))
	l.Add(mk("c")) // evicts a
	if l.Get("a") != nil {
		t.Fatalf("a should be evicted")
	}
	if l.Get("b") == nil || l.Get("c") == nil {
		t.Fatalf("b/c should be retained")
	}
	if ids := l.IDs(); len(ids) != 2 || ids[0] != "b" || ids[1] != "c" {
		t.Fatalf("IDs = %v", ids)
	}
	// Replacing an existing id must not evict.
	l.Add(mk("b"))
	if l.Get("c") == nil {
		t.Fatalf("replace evicted c")
	}
	l.Add(nil) // no-op
	var nilLog *TraceLog
	nilLog.Add(mk("x"))
	if nilLog.Get("x") != nil || nilLog.IDs() != nil {
		t.Fatalf("nil log leaked state")
	}
}

func TestRegistryPrometheus(t *testing.T) {
	r := NewRegistry()
	qc := r.Counter("pushdowndb_queries_total", "Queries executed.", "tenant", "status")
	qc.Inc("acme", "ok")
	qc.Inc("acme", "ok")
	qc.Add(1, "beta", "error")
	qc.Add(-5, "beta", "error")   // ignored: counters only go up
	qc.Add(1, "too", "many", "労") // ignored: label arity mismatch
	r.GaugeFunc("pushdowndb_in_flight", "In-flight queries.", func() float64 { return 3 })
	r.Gauge("pushdowndb_lane", "Lane depth.", []string{"tenant"}, func() []Sample {
		return []Sample{{Labels: []string{"z"}, Value: 1}, {Labels: []string{"a"}, Value: 2.5}}
	})
	h := r.Histogram("pushdowndb_wall_seconds", "Wall time.", []float64{0.1, 1, 10})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(100) // above top bucket: only +Inf

	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	out := buf.String()

	for _, want := range []string{
		"# HELP pushdowndb_queries_total Queries executed.",
		"# TYPE pushdowndb_queries_total counter",
		`pushdowndb_queries_total{tenant="acme",status="ok"} 2`,
		`pushdowndb_queries_total{tenant="beta",status="error"} 1`,
		"# TYPE pushdowndb_in_flight gauge",
		"pushdowndb_in_flight 3",
		`pushdowndb_lane{tenant="a"} 2.5`,
		`pushdowndb_lane{tenant="z"} 1`,
		"# TYPE pushdowndb_wall_seconds histogram",
		`pushdowndb_wall_seconds_bucket{le="0.1"} 1`,
		`pushdowndb_wall_seconds_bucket{le="1"} 2`,
		`pushdowndb_wall_seconds_bucket{le="10"} 2`,
		`pushdowndb_wall_seconds_bucket{le="+Inf"} 3`,
		"pushdowndb_wall_seconds_sum 100.55",
		"pushdowndb_wall_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	// Sorted series: tenant "a" before "z".
	if strings.Index(out, `{tenant="a"}`) > strings.Index(out, `{tenant="z"}`) {
		t.Fatalf("gauge samples not sorted:\n%s", out)
	}
	if got := qc.Value("acme", "ok"); got != 2 {
		t.Fatalf("Value = %v, want 2", got)
	}

	// Two scrapes must be byte-identical (determinism).
	var buf2 bytes.Buffer
	r.WritePrometheus(&buf2)
	if buf2.String() != out {
		t.Fatalf("scrapes differ")
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x_total", "X.", "q")
	c.Inc("a\"b\\c\nd")
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	want := `x_total{q="a\"b\\c\nd"} 1`
	if !strings.Contains(buf.String(), want) {
		t.Fatalf("escaping: got\n%s\nwant line %q", buf.String(), want)
	}
}

func BenchmarkNilSpanOps(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr := FromContext(ctx)
		sp := tr.Root().Child("scan")
		sp.AddInt("rows", 1)
		sp.End()
	}
}
