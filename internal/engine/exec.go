package engine

import (
	"context"
	"fmt"
	"sync"

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

// forEachPart runs fn over every partition, one goroutine each, and waits
// for all of them. The first error cancels the shared context, which the
// calls still in flight see; canceling the execution's own context aborts
// the fan-out the same way.
func (e *Exec) forEachPart(keys []string, fn func(ctx context.Context, i int, key string) error) error {
	ctx, cancel := context.WithCancel(e.ctx)
	defer cancel()
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	for i, k := range keys {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := fn(ctx, i, k); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
				cancel()
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return e.ctx.Err()
}
