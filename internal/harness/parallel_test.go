package harness

import (
	"context"
	"fmt"
	"strings"
	"testing"
)

func TestParallelFigure(t *testing.T) {
	env := testEnv(t)
	r, err := RunParallel(context.Background(), env)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, r)
	t.Log("\n" + r.String())

	// Server-side group-by wall-clock shrinks as the budget grows, and
	// substantially so by 32 workers (RunParallel itself verifies the
	// results stay byte-identical).
	seq := point(t, r, "Server-Side Group-By", "1")
	par := point(t, r, "Server-Side Group-By", "32")
	if par.RuntimeSec >= seq.RuntimeSec/2 {
		t.Errorf("32 workers (%.2fs) should be far below sequential (%.2fs)",
			par.RuntimeSec, seq.RuntimeSec)
	}
	for i := 1; i < len(ParallelWorkerCounts); i++ {
		prev := point(t, r, "Server-Side Group-By", fmt.Sprint(ParallelWorkerCounts[i-1]))
		cur := point(t, r, "Server-Side Group-By", fmt.Sprint(ParallelWorkerCounts[i]))
		if cur.RuntimeSec > prev.RuntimeSec {
			t.Errorf("runtime must not grow with workers: %.2fs@%d -> %.2fs@%d",
				prev.RuntimeSec, ParallelWorkerCounts[i-1], cur.RuntimeSec, ParallelWorkerCounts[i])
		}
	}

	// The planner's join-strategy decision flips across the sweep: bloom
	// wins against a sequential server, baseline against a well-parallel
	// one.
	var sawBloom, sawBaseline bool
	for _, p := range r.Points {
		if !strings.HasPrefix(p.Series, "Planner") {
			continue
		}
		if strings.Contains(p.Series, "bloom") {
			sawBloom = true
		}
		if strings.Contains(p.Series, "baseline") {
			sawBaseline = true
		}
	}
	if !sawBloom || !sawBaseline {
		t.Errorf("expected the planner decision to flip across the worker sweep (bloom=%v baseline=%v)",
			sawBloom, sawBaseline)
	}
	seqPlan := point(t, r, "Planner (bloom)", "1")
	if seqPlan.Extra["baseline_est"] <= seqPlan.Extra["bloom_est"] {
		t.Error("sequential baseline estimate should exceed the bloom estimate")
	}
}
