package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// verdict says how b's value stands against a's under the metric's bound:
// "worse" or "better" when it moved by more than the bound in that
// direction, "ok" otherwise.
func verdict(d metricDef, a, b float64) string {
	if a == 0 {
		return "ok"
	}
	change := (b - a) / a
	if d.Better == "higher" {
		change = -change
	}
	switch {
	case change > d.Bound:
		return "worse"
	case change < -d.Bound:
		return "better"
	}
	return "ok"
}

// compareFiles prints one row per workload and end-to-end metric of two
// all-workloads documents and reports whether any row is "worse". Requests
// that failed in b count as worse whatever the metrics say.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	var a, b document
	for _, f := range []struct {
		path string
		doc  *document
	}{{pathA, &a}, {pathB, &b}} {
		data, err := os.ReadFile(f.path)
		if err != nil {
			return false, err
		}
		if err := json.Unmarshal(data, f.doc); err != nil {
			return false, fmt.Errorf("%s: %w", f.path, err)
		}
	}
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\ta\tb\tchange\tbound\tverdict")
	anyWorse := false
	for _, wd := range workloadDefs {
		ra, rb := a.Workloads[wd.Name], b.Workloads[wd.Name]
		if ra == nil || rb == nil {
			return false, fmt.Errorf("workload %s is missing from one of the files", wd.Name)
		}
		v := "ok"
		if rb.Failed > 0 {
			v, anyWorse = "worse", true
		}
		fmt.Fprintf(tw, "%s\tfailed\tcount\t%d\t%d\t\t0\t%s\n", wd.Name, ra.Failed, rb.Failed, v)
		for _, d := range endToEnd {
			va, vb := ra.EndToEnd[d.Name].Value, rb.EndToEnd[d.Name].Value
			v := verdict(d, va, vb)
			anyWorse = anyWorse || v == "worse"
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%+.2f%%\t%g%%\t%s\n",
				wd.Name, d.Name, d.Unit, va, vb, ratio(vb-va, va)*100, d.Bound*100, v)
		}
	}
	return anyWorse, tw.Flush()
}
