package harness

import (
	"context"
	"fmt"
	"strings"
	"testing"
)

// TestRunIndexCrossover is the acceptance check for the Index figure: on
// every metered profile the IndexScan must be strictly cheaper than the
// filtered scan at and below 1% selectivity and strictly more expensive at
// 50% — the paper's index-vs-scan crossover.
func TestRunIndexCrossover(t *testing.T) {
	env := NewEnv(SmallScale())
	res, err := RunIndex(context.Background(), env)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, res)
	for _, profile := range []string{"s3", "s3-cross-region"} {
		for _, pct := range []string{"0.1%", "1%"} {
			x := pct + " " + profile
			idx, ok1 := res.Get("IndexScan", x)
			scan, ok2 := res.Get("S3-side filter", x)
			if !ok1 || !ok2 {
				t.Fatalf("missing points at %s:\n%s", x, res)
			}
			if idx.Cost.Total() >= scan.Cost.Total() {
				t.Errorf("%s: IndexScan $%.6f not strictly below filtered scan $%.6f",
					x, idx.Cost.Total(), scan.Cost.Total())
			}
		}
		x := "50% " + profile
		idx, _ := res.Get("IndexScan", x)
		scan, _ := res.Get("S3-side filter", x)
		if idx.Cost.Total() <= scan.Cost.Total() {
			t.Errorf("%s: IndexScan $%.6f not strictly above filtered scan $%.6f",
				x, idx.Cost.Total(), scan.Cost.Total())
		}
		// The planner must follow the crossover: index at the selective
		// end, anything-but-index at the unselective end.
		if _, ok := res.Get("Planner (indexscan)", "0.1% "+profile); !ok {
			t.Errorf("planner did not choose indexscan at 0.1%% on %s:\n%s", profile, plannerSeries(res))
		}
		if _, ok := res.Get("Planner (indexscan)", "50% "+profile); ok {
			t.Errorf("planner chose indexscan at 50%% on %s", profile)
		}
	}
	// Every IndexScan point that returned rows issued multi-range GETs.
	for _, p := range res.Points {
		if p.Series == "IndexScan" && p.Extra["rows"] > 0 && p.Extra["ranged_gets"] == 0 {
			t.Errorf("IndexScan at %s returned rows with no multi-range GETs", p.X)
		}
	}
	if !strings.Contains(res.String(), "Index") {
		t.Error("result does not render")
	}
}

func plannerSeries(res *Result) string {
	var b strings.Builder
	for _, p := range res.Points {
		if strings.HasPrefix(p.Series, "Planner") {
			fmt.Fprintf(&b, "%s at %s\n", p.Series, p.X)
		}
	}
	return b.String()
}
