package engine

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"pushdowndb/internal/cloudsim"
	"pushdowndb/internal/obs"
	"pushdowndb/internal/s3api"
)

// Exec is the context of a single query execution: a cancellation context,
// a virtual clock, and a stage counter. Operators allocate stages in
// order; phases within one stage overlap on the clock.
type Exec struct {
	db  *DB
	ctx context.Context
	// Metrics is the query's virtual clock and cost accumulator.
	Metrics *cloudsim.Metrics

	// plan is the plan of the SELECT this execution planned (nil for
	// explicit operator calls).
	plan *QueryPlan

	// partsMemo caches partition listings per table for this execution, so
	// planning (header probes, statistics, cache-residency checks) and the
	// execution scans share one List call per table instead of re-listing.
	partsMu   sync.Mutex
	partsMemo map[string][]string

	// trace is the query's obs span tree, picked up from the context in
	// NewExecContext; nil when the caller attached none (the untraced
	// fast path: every span is nil).
	trace *obs.Trace
	// spanParent is the innermost scope's span, which sequential statement
	// code attaches children to (the trace root when nil; step.go).
	spanMu     sync.Mutex
	spanParent *obs.Span

	mu    sync.Mutex
	stage int
}

// QueryPlan returns the plan of the SELECT, EXPLAIN or EXPLAIN ANALYZE
// this execution planned (nil when its planning failed or it was driven
// through the explicit operator APIs).
func (e *Exec) QueryPlan() *QueryPlan { return e.plan }

// NewExec starts a query execution context with background cancellation.
func (db *DB) NewExec() *Exec {
	//lint:ignore ctxflow context-free compatibility wrapper; the root context is born here
	return db.NewExecContext(context.Background())
}

// NewExecContext starts a query execution context; canceling ctx aborts
// the execution's storage fan-outs.
func (db *DB) NewExecContext(ctx context.Context) *Exec {
	if ctx == nil {
		//lint:ignore ctxflow nil-guard: a nil ctx must degrade to Background, not panic
		ctx = context.Background()
	}
	return &Exec{
		db: db, ctx: ctx,
		Metrics: cloudsim.NewMetricsScaled(db.Cfg, db.Sim),
		trace:   obs.FromContext(ctx),
	}
}

// DB returns the owning database.
func (e *Exec) DB() *DB { return e.db }

// workers is the server-side parallelism budget local operators run with
// (the cost model's Workers knob, capped at Cores).
func (e *Exec) workers() int { return e.db.Cfg.WorkerBudget() }

// NextStage allocates the next sequential stage index.
func (e *Exec) NextStage() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := e.stage
	e.stage++
	return s
}

// RuntimeSeconds returns the query's virtual runtime so far.
func (e *Exec) RuntimeSeconds() float64 { return e.Metrics.RuntimeSeconds() }

// Cost returns the query's cost so far under the DB's pricing (phases run
// against a backend bill at that backend's profile rates).
func (e *Exec) Cost() cloudsim.CostBreakdown { return e.Metrics.Cost(e.db.Pricing) }

// parts lists the partition objects of a table on its backend, memoized
// for the lifetime of this execution (tables must not change mid-query —
// the invalidation contract requires InvalidateStats/InvalidateTable
// between a mutation and the next query anyway).
func (e *Exec) parts(table string) ([]string, error) {
	e.partsMu.Lock()
	if keys, ok := e.partsMemo[table]; ok {
		e.partsMu.Unlock()
		return keys, nil
	}
	e.partsMu.Unlock()
	s := e.db.store(table)
	keys, err := s.List(e.ctx, table+"/part")
	if err != nil {
		return nil, err
	}
	if len(keys) == 0 {
		// A kinded not-found, so an unknown table surfaces at the server as
		// bad_request rather than a 500 "internal".
		return nil, s3api.NewError("list", e.db.bucket, table+"/part", s3api.KindNotFound,
			fmt.Errorf("engine: table %q has no partitions in bucket %q on backend %q",
				table, e.db.bucket, s.Name()))
	}
	e.partsMu.Lock()
	if e.partsMemo == nil {
		e.partsMemo = map[string][]string{}
	}
	e.partsMemo[table] = keys
	e.partsMu.Unlock()
	return keys, nil
}

// concurrently runs the sibling scans of one stage at once and waits for
// all of them, so that when an operator returns — with a result or with an
// error — none of its scans is still issuing backend requests or adding
// phases and spans to the execution. It returns the first error in
// argument order.
func concurrently(fns ...func() error) error {
	errs := make([]error, len(fns))
	var wg sync.WaitGroup
	for i, fn := range fns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn()
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// failGrace is how long a fan-out's first failure leaves the partitions
// before it to fail on their own (forEachPart).
var failGrace = 100 * time.Millisecond

// errRunning is the error slot of a partition forEachPart still runs.
var errRunning = errors.New("engine: partition still running")

// forEachPart runs fn over every partition, one goroutine each, and waits
// for all of them. It returns the lowest-index partition's own error: a
// context.Canceled that reached a partition after a sibling failed is
// dropped, and a failure cancels the shared context only once no
// partition before the lowest failing one still runs, so that no error
// can come first, or failGrace after the first failure. So the fan-out
// stops as soon as its answer is known, and a partition that fails on its
// own within failGrace of a later one's failure still reports its error:
// best-effort against a remote store, in practice always in process.
// Canceling the execution's own context aborts the fan-out at once.
func (e *Exec) forEachPart(keys []string, fn func(ctx context.Context, i int, key string) error) error {
	ctx, cancel := context.WithCancel(e.ctx)
	defer cancel()
	errs := make([]error, len(keys))
	for i := range errs {
		errs[i] = errRunning
	}
	var fan struct { // the goroutines' shared state, in one allocation
		sync.WaitGroup
		sync.Mutex // guards errs
		failed     sync.Once
	}
	for i, k := range keys {
		fan.Add(1)
		go func() {
			defer fan.Done()
			err := fn(ctx, i, k)
			if err != nil && ctx.Err() != nil && e.ctx.Err() == nil && errors.Is(err, context.Canceled) {
				err = nil // a sibling's failure canceled it
			}
			fan.Lock()
			defer fan.Unlock()
			if errs[i] = err; err != nil {
				fan.failed.Do(func() { time.AfterFunc(failGrace, cancel) })
			}
			if j := slices.IndexFunc(errs, func(err error) bool { return err != nil }); j >= 0 && errs[j] != errRunning {
				cancel() // no partition before the lowest failure still runs, so no error can come first
			}
		}()
	}
	fan.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return e.ctx.Err()
}
