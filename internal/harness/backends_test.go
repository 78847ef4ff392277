package harness

import (
	"context"
	"testing"

	"pushdowndb/internal/engine"
)

// TestRunBackends: the backend sweep must run, keep answers identical, and
// show the planner's strategy reacting to the storage tier — the local
// NVMe end of the sweep and the thin-WAN end must not agree everywhere.
func TestRunBackends(t *testing.T) {
	env := NewEnv(SmallScale())
	res, err := RunBackends(context.Background(), env)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, res)
	profiles := BackendProfiles()
	if len(res.Points) != len(profiles) {
		t.Fatalf("points = %d, want one per backend profile", len(res.Points))
	}
	choice := map[string]float64{}
	for _, p := range res.Points {
		choice[p.X] = p.Extra["bloom"]
		if p.RuntimeSec <= 0 {
			t.Errorf("backend %s: runtime %f", p.X, p.RuntimeSec)
		}
	}
	first, last := profiles[0].Name, profiles[len(profiles)-1].Name
	if choice[first] == choice[last] {
		t.Errorf("strategy choice identical on %s and %s; the planner should react to the backend profile (choices: %v)",
			first, last, choice)
	}
	// The thin-WAN tier must pick the pushdown join (shrinking the
	// transfer is the whole point there).
	if choice["thin-wan"] != 1 {
		t.Errorf("thin-wan backend did not choose the %s strategy: %v", engine.StrategyBloom, choice)
	}
}
