package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"pushdowndb/internal/s3api"
	"pushdowndb/internal/selectengine"
	"pushdowndb/internal/store"
)

// TestSiblingScansFinishBeforeOperatorReturns pins the fan-out contract of
// concurrently: an operator whose one scan fails returns only after its
// sibling scans have stopped. The left table's backend fails every GET at
// once; each of the right table's sixteen partitions loads behind a stall,
// so when the baseline join reports the left failure the right load is still
// running. Every one of its GETs must nevertheless have happened by then — a
// request issued after the return would add phases and spans to an
// execution whose query is over.
func TestSiblingScansFinishBeforeOperatorReturns(t *testing.T) {
	ctx := context.Background()
	const parts = 16
	leftStore, rightStore := store.New(), store.New()
	if err := PartitionTable(ctx, leftStore, testBucket, "l", []string{"k"}, [][]string{{"1"}, {"2"}}, 1); err != nil {
		t.Fatal(err)
	}
	var rows [][]string
	for i := 0; i < parts; i++ {
		rows = append(rows, []string{fmt.Sprint(i)})
	}
	if err := PartitionTable(ctx, rightStore, testBucket, "r", []string{"k2"}, rows, parts); err != nil {
		t.Fatal(err)
	}
	failing := s3api.NewFault(s3api.NewInProc(leftStore))
	failing.OnOps("get")
	failing.FailWith(errors.New("injected left failure"))
	rightGets := s3api.NewCounting(s3api.NewInProc(rightStore))
	slow := s3api.NewFault(rightGets)
	slow.OnOps("get")
	slow.StallFor(time.Millisecond)

	db, err := Open(testBucket,
		WithBackend("left", failing), WithBackend("right", slow), WithTableBackend("r", "right"))
	if err != nil {
		t.Fatal(err)
	}
	_, err = db.NewExecContext(ctx).Join(JoinSpec{SQL: "SELECT * FROM l JOIN r ON l.k = r.k2"}, StrategyBaseline)
	if err == nil || !strings.Contains(err.Error(), "injected left failure") {
		t.Fatalf("baseline join err = %v, want the left table's failure", err)
	}
	if got := rightGets.Gets(); got != parts {
		t.Errorf("baseline join returned after %d of the sibling load's %d GETs; the rest were still to come", got, parts)
	}
}

// TestConcurrentlyReportsFirstErrorInArgumentOrder: whichever closure
// fails first on the clock, the error returned is the first in argument
// order, so an operator's error does not depend on scheduling.
func TestConcurrentlyReportsFirstErrorInArgumentOrder(t *testing.T) {
	first, second := errors.New("first"), errors.New("second")
	release := make(chan struct{})
	err := concurrently(
		func() error { <-release; return first },
		func() error { close(release); return second },
	)
	if err != first {
		t.Errorf("concurrently = %v, want the first argument's error", err)
	}
}

// TestForEachPartStopsOnceItsErrorIsKnown pins forEachPart's order with an
// hour's failGrace, so that only the partitions' order cancels: partition
// 2's failure cancels nothing while partition 0 still runs, and partition
// 0's own later failure is the error; once no partition before the lowest
// failure still runs, the rest are canceled at once. Canceling at every
// failure would report partition 2's error in the first case, and
// canceling only after the grace would hang.
func TestForEachPartStopsOnceItsErrorIsKnown(t *testing.T) {
	defer func(g time.Duration) { failGrace = g }(failGrace)
	failGrace = time.Hour
	db, err := Open(testBucket, WithBackend("inproc", s3api.NewInProc(store.New())))
	if err != nil {
		t.Fatal(err)
	}
	own0, own2 := errors.New("partition 0's own"), errors.New("partition 2's own")
	for _, c := range []struct {
		name        string
		first, want error // partition 0's error, and the fan-out's
	}{
		{"partition 0 fails after partition 2", own0, own0},
		{"partitions 0 and 1 succeed", nil, own2},
	} {
		failed2, done := make(chan struct{}), make(chan error, 1)
		go func() {
			done <- db.NewExec().forEachPart([]string{"a", "b", "c", "d"}, func(ctx context.Context, i int, _ string) error {
				switch {
				case i == 2:
					defer close(failed2)
					return own2
				case i == 3 || i == 1 && c.first != nil:
					<-ctx.Done()
					return ctx.Err()
				}
				<-failed2
				time.Sleep(20 * time.Millisecond) // partition 2's failure is recorded, and must not cancel this one
				if ctx.Err() != nil {
					return ctx.Err()
				}
				if i == 0 {
					return c.first
				}
				return nil
			})
		}()
		select {
		case err := <-done:
			if err != c.want {
				t.Errorf("%s: forEachPart = %v, want %v", c.name, err, c.want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: forEachPart still waiting 10 s after its answer was known", c.name)
		}
	}
}

// faultParts sends the selects of the partitions it names through their
// Fault, and every other call straight to the backend.
type faultParts struct {
	s3api.Backend
	faults map[string]*s3api.Fault
}

func (b faultParts) Select(ctx context.Context, bucket, key string, req selectengine.Request) (*selectengine.Result, error) {
	if f, ok := b.faults[key]; ok {
		return f.Select(ctx, bucket, key, req)
	}
	return b.Backend.Select(ctx, bucket, key, req)
}

// TestGroupedScanFaultMidFanOut: a grouped scan folds its responses in
// partition order, each partition's waiting for the one before it. With the
// first partition's response last to arrive, the groups still come out in
// the concatenation's first-seen order. When the third of four partitions
// fails while the first is stalled in storage, the statement returns the
// third's error once the first has had failGrace to fail on its own: the
// second and fourth, whose responses wait their turn, stop waiting, the
// first's select is canceled, and no goroutine is left behind.
func TestGroupedScanFaultMidFanOut(t *testing.T) {
	ctx := context.Background()
	st := store.New()
	var rows [][]string
	for i := range 40 {
		rows = append(rows, []string{fmt.Sprint(i / 5), fmt.Sprint(i)})
	}
	if err := PartitionTable(ctx, st, testBucket, "t", []string{"g", "v"}, rows, 4); err != nil {
		t.Fatal(err)
	}
	st.Delete(testBucket, StatsKey("t")) // no pushed tail: the plain scan folds
	parts := st.TableParts(testBucket, "t")
	stalled, failing := s3api.NewFault(s3api.NewInProc(st)), s3api.NewFault(s3api.NewInProc(st))
	backend := faultParts{Backend: s3api.NewInProc(st), faults: map[string]*s3api.Fault{parts[0]: stalled, parts[2]: failing}}
	db, err := Open(testBucket, WithBackend("s3sim", backend))
	if err != nil {
		t.Fatal(err)
	}
	const sql = "SELECT g, SUM(v) AS s, COUNT(*) AS n FROM t GROUP BY g"

	stalled.StallFor(20 * time.Millisecond)
	ref, err := Open(testBucket, WithBackend("s3sim", s3api.NewInProc(st)))
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := ref.QueryContext(ctx, sql)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := db.QueryContext(ctx, sql)
	if err != nil || fmt.Sprint(got.Rows) != fmt.Sprint(want.Rows) {
		t.Fatalf("first partition last to arrive: %v, %v; want %v", got, err, want.Rows)
	}

	stalled.StallFor(time.Minute)
	failing.FailWith(errors.New("injected partition fault"))
	before := runtime.NumGoroutine()
	done := make(chan error, 1)
	go func() {
		_, _, err := db.QueryContext(ctx, sql)
		done <- err
	}()
	select {
	case err = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("the grouped scan did not return after a partition failed")
	}
	if err == nil || !strings.Contains(err.Error(), "injected partition fault") {
		t.Fatalf("err = %v, want the failed partition's", err)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the statement returned, %d before", runtime.NumGoroutine(), before)
		}
	}
}
