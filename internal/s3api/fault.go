package s3api

import (
	"context"
	"sync"
	"time"

	"pushdowndb/internal/selectengine"
)

// Fault wraps a Backend and injects failures or stalls on demand. It
// exists for server-grade testing: a query server must cut a stalled
// storage call with its per-request deadline and surface a structured
// timeout instead of hanging the client, and the only way to pin that is
// a backend that misbehaves on cue. Configuration may change while
// requests are in flight (all methods are safe for concurrent use); the
// zero configuration passes every call straight through.
type Fault struct {
	Backend

	mu    sync.Mutex
	stall time.Duration
	fail  error
	ops   map[string]bool // nil = every op
}

// NewFault wraps b with no faults armed.
func NewFault(b Backend) *Fault { return &Fault{Backend: b} }

// StallFor makes matching calls sleep for d before proceeding. The sleep
// honors context cancellation: a canceled call returns a KindCanceled
// error instead of completing, exactly like a real storage request cut
// mid-flight.
func (f *Fault) StallFor(d time.Duration) {
	f.mu.Lock()
	f.stall = d
	f.mu.Unlock()
}

// FailWith makes matching calls return err immediately.
func (f *Fault) FailWith(err error) {
	f.mu.Lock()
	f.fail = err
	f.mu.Unlock()
}

// OnOps restricts the armed faults to the named backend operations
// ("get", "get_range", "get_ranges", "select", "list", "size"); with no
// arguments every operation is affected again.
func (f *Fault) OnOps(ops ...string) {
	f.mu.Lock()
	if len(ops) == 0 {
		f.ops = nil
	} else {
		f.ops = map[string]bool{}
		for _, op := range ops {
			f.ops[op] = true
		}
	}
	f.mu.Unlock()
}

// Reset disarms every fault.
func (f *Fault) Reset() {
	f.mu.Lock()
	f.stall = 0
	f.fail = nil
	f.ops = nil
	f.mu.Unlock()
}

// inject applies the armed faults to one call; a non-nil return aborts
// the call with that error.
func (f *Fault) inject(ctx context.Context, op, bucket, key string) error {
	f.mu.Lock()
	stall, fail, ops := f.stall, f.fail, f.ops
	f.mu.Unlock()
	if ops != nil && !ops[op] {
		return nil
	}
	if stall > 0 {
		t := time.NewTimer(stall)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
			return NewError(op, bucket, key, KindCanceled, ctx.Err())
		}
	}
	if fail != nil {
		return NewError(op, bucket, key, KindInternal, fail)
	}
	return nil
}

// Get implements Backend.
func (f *Fault) Get(ctx context.Context, bucket, key string) ([]byte, error) {
	if err := f.inject(ctx, "get", bucket, key); err != nil {
		return nil, err
	}
	return f.Backend.Get(ctx, bucket, key)
}

// GetRange implements Backend.
func (f *Fault) GetRange(ctx context.Context, bucket, key string, first, last int64) ([]byte, error) {
	if err := f.inject(ctx, "get_range", bucket, key); err != nil {
		return nil, err
	}
	return f.Backend.GetRange(ctx, bucket, key, first, last)
}

// GetRanges implements Backend.
func (f *Fault) GetRanges(ctx context.Context, bucket, key string, ranges [][2]int64) ([][]byte, error) {
	if err := f.inject(ctx, "get_ranges", bucket, key); err != nil {
		return nil, err
	}
	return f.Backend.GetRanges(ctx, bucket, key, ranges)
}

// Select implements Backend.
func (f *Fault) Select(ctx context.Context, bucket, key string, req selectengine.Request) (*selectengine.Result, error) {
	if err := f.inject(ctx, "select", bucket, key); err != nil {
		return nil, err
	}
	return f.Backend.Select(ctx, bucket, key, req)
}

// Lend implements Selector, faulted as a Select.
func (f *Fault) Lend(ctx context.Context, bucket, key string, req selectengine.Request, sink func(*selectengine.Result) error) error {
	if err := f.inject(ctx, "select", bucket, key); err != nil {
		return err
	}
	return Lending(f.Backend).Lend(ctx, bucket, key, req, sink)
}

// List implements Backend.
func (f *Fault) List(ctx context.Context, bucket, prefix string) ([]string, error) {
	if err := f.inject(ctx, "list", bucket, prefix); err != nil {
		return nil, err
	}
	return f.Backend.List(ctx, bucket, prefix)
}

// Size implements Backend.
func (f *Fault) Size(ctx context.Context, bucket, key string) (int64, error) {
	if err := f.inject(ctx, "size", bucket, key); err != nil {
		return 0, err
	}
	return f.Backend.Size(ctx, bucket, key)
}

// Put implements Putter when the wrapped backend does (loading helper).
func (f *Fault) Put(ctx context.Context, bucket, key string, data []byte) error {
	p, ok := f.Backend.(Putter)
	if !ok {
		return NewError("put", bucket, key, KindUnsupported, nil)
	}
	return p.Put(ctx, bucket, key, data)
}
