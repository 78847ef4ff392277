package s3api

import (
	"context"
	"sync/atomic"

	"pushdowndb/internal/selectengine"
)

// Counting wraps a Backend and counts the storage requests that actually
// reach it, independent of the engine's virtual-clock accounting. Tests and
// harness figures use it to assert wire-level facts the cost model can only
// claim — e.g. that a warm result cache issues zero Select requests on a
// repeated query. All counters are safe for concurrent use.
type Counting struct {
	Backend
	gets, getRanges, selects, lists, sizes atomic.Int64
}

// NewCounting wraps b.
func NewCounting(b Backend) *Counting { return &Counting{Backend: b} }

// Gets returns the number of whole-object Get calls.
func (c *Counting) Gets() int64 { return c.gets.Load() }

// GetRanges returns the number of ranged/multi-range GET calls.
func (c *Counting) GetRangeCalls() int64 { return c.getRanges.Load() }

// Selects returns the number of Select calls that reached the backend.
func (c *Counting) Selects() int64 { return c.selects.Load() }

// Lists returns the number of List calls.
func (c *Counting) Lists() int64 { return c.lists.Load() }

// Sizes returns the number of Size calls.
func (c *Counting) Sizes() int64 { return c.sizes.Load() }

// Reset zeroes all counters.
func (c *Counting) Reset() {
	c.gets.Store(0)
	c.getRanges.Store(0)
	c.selects.Store(0)
	c.lists.Store(0)
	c.sizes.Store(0)
}

// Get implements Backend.
func (c *Counting) Get(ctx context.Context, bucket, key string) ([]byte, error) {
	c.gets.Add(1)
	return c.Backend.Get(ctx, bucket, key)
}

// GetRange implements Backend.
func (c *Counting) GetRange(ctx context.Context, bucket, key string, first, last int64) ([]byte, error) {
	c.getRanges.Add(1)
	return c.Backend.GetRange(ctx, bucket, key, first, last)
}

// GetRanges implements Backend.
func (c *Counting) GetRanges(ctx context.Context, bucket, key string, ranges [][2]int64) ([][]byte, error) {
	c.getRanges.Add(1)
	return c.Backend.GetRanges(ctx, bucket, key, ranges)
}

// Select implements Backend.
func (c *Counting) Select(ctx context.Context, bucket, key string, req selectengine.Request) (*selectengine.Result, error) {
	c.selects.Add(1)
	return c.Backend.Select(ctx, bucket, key, req)
}

// Lend implements Selector, counted as a Select.
func (c *Counting) Lend(ctx context.Context, bucket, key string, req selectengine.Request, sink func(*selectengine.Result) error) error {
	c.selects.Add(1)
	return Lending(c.Backend).Lend(ctx, bucket, key, req, sink)
}

// List implements Backend.
func (c *Counting) List(ctx context.Context, bucket, prefix string) ([]string, error) {
	c.lists.Add(1)
	return c.Backend.List(ctx, bucket, prefix)
}

// Size implements Backend.
func (c *Counting) Size(ctx context.Context, bucket, key string) (int64, error) {
	c.sizes.Add(1)
	return c.Backend.Size(ctx, bucket, key)
}

// Put passes through to the wrapped backend's Putter when it has one
// (loading helper, unmetered like everywhere else).
func (c *Counting) Put(ctx context.Context, bucket, key string, data []byte) error {
	if p, ok := c.Backend.(Putter); ok {
		return p.Put(ctx, bucket, key, data)
	}
	return NewError("put", bucket, key, KindUnsupported, nil)
}
