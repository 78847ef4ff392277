package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"pushdowndb/internal/s3api"
	"pushdowndb/internal/store"
)

// TestSiblingScansFinishBeforeOperatorReturns pins the fan-out contract of
// concurrently: an operator whose one scan fails returns only after its
// sibling scans have stopped. The left table's backend fails every GET at
// once; each of the right table's sixteen partitions loads behind a stall,
// so when BaselineJoin reports the left failure the right load is still
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
	_, err = db.NewExecContext(ctx).BaselineJoin(JoinSpec{LeftTable: "l", RightTable: "r", LeftKey: "k", RightKey: "k2"})
	if err == nil || !strings.Contains(err.Error(), "injected left failure") {
		t.Fatalf("BaselineJoin err = %v, want the left table's failure", err)
	}
	if got := rightGets.Gets(); got != parts {
		t.Errorf("BaselineJoin returned after %d of the sibling load's %d GETs; the rest were still to come", got, parts)
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
