package main

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// TestQuickSmoke runs every workload once at -quick scale, traced, and
// checks that every metric of both tables came out finite, that the
// metrics every workload must move are non-zero, that no answer was wrong,
// and that the trace file was written. The four run side by side: the
// process-wide numbers (CPU, allocation) are then mixed, and the test does
// not look at their values.
func TestQuickSmoke(t *testing.T) {
	for _, w := range workloadDefs {
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			out, err := runWorkload(context.Background(), runConfig{
				workload: w.Name, seed: 42, seconds: 0.5, trace: true, quick: true, outDir: dir,
			})
			if err != nil {
				t.Fatal(err)
			}
			if out.failed != 0 || out.attempted == 0 {
				t.Errorf("%d of %d requests failed", out.failed, out.attempted)
			}
			for _, set := range []struct {
				defs []metricDef
				got  map[string]metricValue
			}{
				{endToEnd, out.resultLine(false).Metrics},
				{perLayer, out.resultLine(true).Metrics},
			} {
				if len(set.got) != len(set.defs) {
					t.Errorf("%d metrics reported, want %d", len(set.got), len(set.defs))
				}
				for _, d := range set.defs {
					v, ok := set.got[d.Name]
					switch {
					case !ok:
						t.Errorf("%s is missing", d.Name)
					case math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Value < 0 && d.Name != "obs.trace_overhead_frac":
						t.Errorf("%s = %g", d.Name, v.Value)
					case v.Unit != d.Unit:
						t.Errorf("%s carries unit %q, want %q", d.Name, v.Unit, d.Unit)
					}
				}
			}
			for _, d := range endToEnd {
				if out.endToEnd[d.Name] <= 0 {
					t.Errorf("end-to-end metric %s = %g; it must never be 0", d.Name, out.endToEnd[d.Name])
				}
			}
			for _, tpl := range templatesOf(workloadSpecs[w.Name].statements()) {
				if out.perLayer["query."+tpl+"_ms_p50"] <= 0 {
					t.Errorf("query.%s_ms_p50 = 0 on the workload that runs it", tpl)
				}
			}
			if _, ok := out.perLayer["engine.unattributed_frac"]; !ok {
				t.Error("engine.unattributed_frac was not measured")
			}
			if fi, err := os.Stat(filepath.Join(dir, w.Name+".trace.json")); err != nil || fi.Size() == 0 {
				t.Errorf("trace file: %v", err)
			}
		})
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "wall", Better: "lower", Bound: 0.1}
	higher := metricDef{Name: "qps", Better: "higher", Bound: 0.1}
	for _, c := range []struct {
		d    metricDef
		a, b float64
		want string
	}{
		{lower, 100, 109, "ok"}, {lower, 100, 111, "worse"}, {lower, 100, 89, "better"},
		{higher, 100, 91, "ok"}, {higher, 100, 89, "worse"}, {higher, 100, 111, "better"},
	} {
		if got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("verdict(%s, %g -> %g) = %s, want %s", c.d.Name, c.a, c.b, got, c.want)
		}
	}
}
