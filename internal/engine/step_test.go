package engine

import (
	"context"
	"fmt"
	"testing"

	"pushdowndb/internal/obs"
	"pushdowndb/internal/race"
	"pushdowndb/internal/s3api"
	"pushdowndb/internal/store"
)

// TestUntracedStepsAllocateNothing pins the off-state of step.go: on an
// Exec with no trace, opening, metering, annotating and ending a step or a
// scope allocates nothing once the phase itself exists.
func TestUntracedStepsAllocateNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts differ under -race")
	}
	db, _ := newTestDB(t)
	e := db.NewExecContext(context.Background())
	allocs := testing.AllocsPerRun(100, func() {
		sc := e.scope("select")
		st := e.step("load events", "load events", 0, "events")
		st.AddGetRequest(100)
		st.AddServerRows(10)
		st.sp.SetInt("rows", 1<<20)
		st.sp.SetStr("source", db.bucket)
		st.end(nil)
		local := e.step("local", "local", 1, "")
		local.AddServerRows(10)
		e.enter(local.sp).end(nil)
		sc.end(nil)
	})
	if allocs != 0 {
		t.Errorf("an untraced step and scope allocate %v times, want 0", allocs)
	}
	if n := len(e.Metrics.Phases()); n != 2 {
		t.Errorf("%d phases opened, want the 2 the steps meter", n)
	}
}

// TestTracingChangesNoFigure runs the differential corpus with tracing on
// and off: the virtual runtime, the bill and the phase table must not
// notice the spans.
func TestTracingChangesNoFigure(t *testing.T) {
	inproc := s3api.NewInProc(store.New())
	diffLoad(t, inproc)
	for _, q := range diffQueries {
		var figures [2]string
		for i, traced := range []bool{false, true} {
			db, err := Open(diffBucket, WithBackend("inproc", inproc))
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			if traced {
				ctx = obs.WithTrace(ctx, obs.New(q.name, "query"))
			}
			_, e, err := db.QueryContext(ctx, q.sql)
			if err != nil {
				t.Fatalf("%s (traced %v): %v", q.name, traced, err)
			}
			if (e.Trace() != nil) != traced {
				t.Fatalf("%s: traced = %v, trace %v", q.name, traced, e.Trace())
			}
			figures[i] = fmtFigures(e)
		}
		if figures[0] != figures[1] {
			t.Errorf("%s: tracing moved the figures\nuntraced:\n%s\ntraced:\n%s", q.name, figures[0], figures[1])
		}
	}
}

// fmtFigures renders what an execution reports: runtime and cost in full
// precision, and the phase table.
func fmtFigures(e *Exec) string {
	c := e.Cost()
	return fmt.Sprintf("%v %v %v %v %v\n%s", e.RuntimeSeconds(),
		c.ComputeUSD, c.RequestUSD, c.ScanUSD, c.TransferUSD, e.Metrics.Report())
}
