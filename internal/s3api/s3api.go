// Package s3api defines the storage-backend surface PushdownDB uses to
// talk to object stores, with an in-process implementation. Two more
// implementations live in internal/s3http (the simulated S3 wire protocol)
// and internal/localfs (objects laid out on the local filesystem); all
// three satisfy Backend and pass the shared conformance suite in
// s3api/conformancetest, so the engine is independent of where a table's
// bytes actually live.
//
// A Backend is context-aware (cancellation propagates through the
// engine's partition fan-outs) and self-describing: it advertises the
// S3 Select Capabilities its select engine supports and a cloudsim.Profile
// (bandwidth, request latency, request/transfer pricing) that the planner
// prices strategies with. Errors are structured *Error values carrying the
// operation, the object, and a Kind.
package s3api

import (
	"context"
	"errors"

	"pushdowndb/internal/cloudsim"
	"pushdowndb/internal/selectengine"
	"pushdowndb/internal/store"
)

// Profile is the performance/pricing self-description a backend
// advertises; see cloudsim.Profile.
type Profile = cloudsim.Profile

// Backend is the storage-service API surface: plain and ranged GETs, the
// multi-range GET extension (paper Suggestion 1), listing, S3 Select, and
// the backend's self-description (capabilities and cost profile).
type Backend interface {
	// Get returns a whole object.
	Get(ctx context.Context, bucket, key string) ([]byte, error)
	// GetRange returns the inclusive byte range [first, last]; last is
	// clamped to the object end, a first at/past the end is a
	// KindInvalidRange error.
	GetRange(ctx context.Context, bucket, key string, first, last int64) ([]byte, error)
	// GetRanges returns several inclusive ranges in one request.
	GetRanges(ctx context.Context, bucket, key string, ranges [][2]int64) ([][]byte, error)
	Selector
	// List returns the keys under a prefix, sorted. A missing bucket
	// lists empty, not an error (matching S3).
	List(ctx context.Context, bucket, prefix string) ([]string, error)
	// Size returns an object's length.
	Size(ctx context.Context, bucket, key string) (int64, error)
	// Capabilities advertises the S3 Select extensions this backend's
	// select engine supports (the Section-X Suggestion flags).
	Capabilities() selectengine.Capabilities
	// Profile advertises the backend's performance and pricing profile
	// for the virtual clock and the planner.
	Profile() Profile
}

// Selector is the S3 Select call on its own. The engine's select pipeline
// is a stack of Selectors — the result cache and the scan-sharing
// coordinator each wrap the one below and stamp Result.Served — bottoming
// out in a Backend; every other storage operation keeps seeing the raw
// Backend.
type Selector interface {
	// Select runs an S3 Select request against one object. The returned
	// Result's header belongs to the caller; its Columns and Rows may be
	// shared and must not be mutated.
	Select(ctx context.Context, bucket, key string, req selectengine.Request) (*selectengine.Result, error)
}

// Putter is the optional write surface backends expose for loading data
// (dataset preparation; not part of any query's metered cost).
type Putter interface {
	Put(ctx context.Context, bucket, key string, data []byte) error
}

// InProc is the embedded Backend over a *store.Store, simulating in-region
// S3: it advertises cloudsim.S3Profile by default.
type InProc struct {
	store   *store.Store
	caps    selectengine.Capabilities
	profile Profile
}

// InProcOption configures NewInProc.
type InProcOption func(*InProc)

// WithCapabilities sets the S3 Select extension flags the backend's select
// engine accepts (all off by default, matching 2020 AWS).
func WithCapabilities(caps selectengine.Capabilities) InProcOption {
	return func(c *InProc) { c.caps = caps }
}

// WithProfile overrides the advertised performance/pricing profile
// (default cloudsim.S3Profile).
func WithProfile(p Profile) InProcOption {
	return func(c *InProc) { c.profile = p }
}

// NewInProc wraps st.
func NewInProc(st *store.Store, opts ...InProcOption) *InProc {
	c := &InProc{store: st, profile: cloudsim.S3Profile()}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Get implements Backend.
func (c *InProc) Get(ctx context.Context, bucket, key string) ([]byte, error) {
	if err := ctxErr(ctx, "get", bucket, key); err != nil {
		return nil, err
	}
	data, err := c.store.Get(bucket, key)
	if err != nil {
		return nil, NewError("get", bucket, key, KindInternal, err)
	}
	return data, nil
}

// GetRange implements Backend.
func (c *InProc) GetRange(ctx context.Context, bucket, key string, first, last int64) ([]byte, error) {
	if err := ctxErr(ctx, "get_range", bucket, key); err != nil {
		return nil, err
	}
	data, err := c.store.GetRange(bucket, key, first, last)
	if err != nil {
		return nil, NewError("get_range", bucket, key, KindInternal, err)
	}
	return data, nil
}

// GetRanges implements Backend.
func (c *InProc) GetRanges(ctx context.Context, bucket, key string, ranges [][2]int64) ([][]byte, error) {
	if err := ctxErr(ctx, "get_ranges", bucket, key); err != nil {
		return nil, err
	}
	parts, err := c.store.GetRanges(bucket, key, ranges)
	if err != nil {
		return nil, NewError("get_ranges", bucket, key, KindInternal, err)
	}
	return parts, nil
}

// Select implements Backend. The request's capabilities are clamped to
// what this backend advertises, so asking for a switched-off extension
// fails with KindUnsupported on every backend alike.
func (c *InProc) Select(ctx context.Context, bucket, key string, req selectengine.Request) (*selectengine.Result, error) {
	if err := ctxErr(ctx, "select", bucket, key); err != nil {
		return nil, err
	}
	data, err := c.store.Get(bucket, key)
	if err != nil {
		return nil, NewError("select", bucket, key, KindInternal, err)
	}
	req.Capabilities = req.Capabilities.Intersect(c.caps)
	res, err := selectengine.Execute(data, req)
	if err != nil {
		return nil, NewError("select", bucket, key, selectKind(err), err)
	}
	return res, nil
}

// selectKind classifies a select-engine rejection: capability misses are
// KindUnsupported, everything else is a bad request.
func selectKind(err error) Kind {
	if errors.Is(err, selectengine.ErrUnsupported) {
		return KindUnsupported
	}
	return KindBadRequest
}

// List implements Backend.
func (c *InProc) List(ctx context.Context, bucket, prefix string) ([]string, error) {
	if err := ctxErr(ctx, "list", bucket, prefix); err != nil {
		return nil, err
	}
	return c.store.List(bucket, prefix), nil
}

// Size implements Backend.
func (c *InProc) Size(ctx context.Context, bucket, key string) (int64, error) {
	if err := ctxErr(ctx, "size", bucket, key); err != nil {
		return 0, err
	}
	n, err := c.store.Size(bucket, key)
	if err != nil {
		return 0, NewError("size", bucket, key, KindInternal, err)
	}
	return n, nil
}

// Put implements Putter (loading helper; not a metered query operation).
func (c *InProc) Put(ctx context.Context, bucket, key string, data []byte) error {
	if err := ctxErr(ctx, "put", bucket, key); err != nil {
		return err
	}
	c.store.Put(bucket, key, data)
	return nil
}

// Capabilities implements Backend.
func (c *InProc) Capabilities() selectengine.Capabilities { return c.caps }

// Profile implements Backend.
func (c *InProc) Profile() Profile { return c.profile }
