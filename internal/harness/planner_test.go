package harness

import (
	"context"
	"strings"
	"testing"
)

func TestPlannerFigure(t *testing.T) {
	env := testEnv(t)
	r, err := RunPlanner(context.Background(), env)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, r)
	t.Log("\n" + r.String())

	if len(r.Points) != len(Fig2Acctbals) {
		t.Fatalf("points = %d, want %d", len(r.Points), len(Fig2Acctbals))
	}
	// At the paper's TPC-H scale the Bloom join dominates the Fig. 2
	// sweep (it wins at every selectivity in the paper); the planner must
	// pick it at least at the most selective point.
	tightest := r.Points[0]
	if !strings.Contains(tightest.Series, "bloom") {
		t.Errorf("at %s the planner chose %q, expected the Bloom join", tightest.X, tightest.Series)
	}
	// Every point carries a real execution: positive runtime and cost.
	for _, p := range r.Points {
		if p.RuntimeSec <= 0 || p.Cost.Total() <= 0 {
			t.Errorf("point (%s, %s) has no metered execution", p.Series, p.X)
		}
	}
}
