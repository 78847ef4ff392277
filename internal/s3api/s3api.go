// Package s3api defines the storage-backend surface PushdownDB uses to
// talk to object stores, and its one storage-side implementation: Local
// executes every Backend call over an Objects — the in-memory store
// (NewInProc) or a directory (internal/localfs). internal/s3http carries
// any Backend over the simulated S3 wire. All three pass the shared
// conformance suite in s3api/conformancetest, so the engine is independent
// of where a table's bytes actually live.
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
	"fmt"

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
	// Select runs an S3 Select request against one object. The returned
	// Result's header belongs to the caller; its owned Columns and Body may
	// be shared and must not be mutated.
	Select(ctx context.Context, bucket, key string, req selectengine.Request) (*selectengine.Result, error)
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

// Selector is the S3 Select call in its lending form. The engine's select
// pipeline is a stack of Selectors — the result cache and the scan-sharing
// coordinator each wrap the one below and stamp Result.Served — bottoming
// out in a backend (Lending); every other storage operation keeps seeing
// the raw Backend.
type Selector interface {
	// Lend runs an S3 Select request against one object and hands the
	// response to sink, as Select returns it but for a lent body
	// (Result.Lent), which nothing may view once sink returns. sink's error
	// comes back as is, neither wrapped nor kinded.
	Lend(ctx context.Context, bucket, key string, req selectengine.Request, sink func(*selectengine.Result) error) error
}

// Lending is b itself when it lends (Local, Counting, Fault), else b's
// Select lending its owned result (the s3http client, test doubles).
func Lending(b Backend) Selector {
	if s, ok := b.(Selector); ok {
		return s
	}
	return owned{b}
}

type owned struct{ Backend }

func (o owned) Lend(ctx context.Context, bucket, key string, req selectengine.Request, sink func(*selectengine.Result) error) error {
	res, err := o.Select(ctx, bucket, key, req)
	if err != nil {
		return err
	}
	return sink(res)
}

// Putter is the optional write surface backends expose for loading data
// (dataset preparation; not part of any query's metered cost). A loader
// lists what a reload overwrites.
type Putter interface {
	Put(ctx context.Context, bucket, key string, data []byte) error
	List(ctx context.Context, bucket, prefix string) ([]string, error)
}

// Objects is where a Local's bytes live: whole objects addressed by
// (bucket, key). Implementations return plain wrapped errors — a miss
// wraps store.ErrNotFound or fs.ErrNotExist, a name it cannot hold (malformed,
// or reserved: see localfs.Dir) fs.ErrInvalid — and NewError kinds them; a
// missing bucket lists empty.
type Objects interface {
	// Read returns a whole object. Local hands the slice to callers as is
	// and never writes to it.
	Read(bucket, key string) ([]byte, error)
	Size(bucket, key string) (int64, error)
	List(bucket, prefix string) ([]string, error)
	Write(bucket, key string, data []byte) error
}

// Local is the storage-side executor: the one implementation of the
// context check, the range rule, the capability clamp, the S3 Select call
// and the error kinds, over any Objects. It is Backend, Selector and Putter.
type Local struct {
	objs    Objects
	caps    selectengine.Capabilities
	profile Profile
}

// Option configures a Local.
type Option func(*Local)

// WithCapabilities sets the S3 Select extension flags the backend's select
// engine accepts (all off by default, matching 2020 AWS).
func WithCapabilities(caps selectengine.Capabilities) Option {
	return func(l *Local) { l.caps = caps }
}

// WithProfile overrides the advertised performance/pricing profile
// (default cloudsim.S3Profile).
func WithProfile(p Profile) Option {
	return func(l *Local) { l.profile = p }
}

// NewLocal returns the backend over objs.
func NewLocal(objs Objects, opts ...Option) *Local {
	l := &Local{objs: objs, profile: cloudsim.S3Profile()}
	for _, o := range opts {
		o(l)
	}
	return l
}

// NewInProc is the Local over the in-memory store, simulating in-region S3.
func NewInProc(st *store.Store, opts ...Option) *Local {
	return NewLocal(memObjects{st}, opts...)
}

// memObjects adapts *store.Store to Objects. Read hands out the slice the
// store retains: the in-memory path makes no copy.
type memObjects struct{ *store.Store }

func (m memObjects) Read(bucket, key string) ([]byte, error) { return m.Get(bucket, key) }
func (m memObjects) List(bucket, prefix string) ([]string, error) {
	return m.Store.List(bucket, prefix), nil
}
func (m memObjects) Write(bucket, key string, data []byte) error {
	m.Put(bucket, key, data)
	return nil
}

// read is the entry of every object read: the context check, then the
// whole object, its failure kinded.
func (l *Local) read(ctx context.Context, op, bucket, key string) ([]byte, error) {
	if err := ctxErr(ctx, op, bucket, key); err != nil {
		return nil, err
	}
	data, err := l.objs.Read(bucket, key)
	if err != nil {
		return nil, NewError(op, bucket, key, KindInternal, err)
	}
	return data, nil
}

// cut is the range rule: the inclusive [first, last] of data, last clamped
// to the object end, a first at/past the end (or an inverted or negative
// range) a KindInvalidRange error.
func cut(op, bucket, key string, data []byte, first, last int64) ([]byte, error) {
	if first < 0 || first >= int64(len(data)) || last < first {
		return nil, NewError(op, bucket, key, KindInvalidRange,
			fmt.Errorf("range [%d,%d] of %d bytes not satisfiable", first, last, len(data)))
	}
	return data[first : min(last, int64(len(data))-1)+1], nil
}

// Get implements Backend.
func (l *Local) Get(ctx context.Context, bucket, key string) ([]byte, error) {
	return l.read(ctx, "get", bucket, key)
}

// GetRange implements Backend.
func (l *Local) GetRange(ctx context.Context, bucket, key string, first, last int64) ([]byte, error) {
	data, err := l.read(ctx, "get_range", bucket, key)
	if err != nil {
		return nil, err
	}
	return cut("get_range", bucket, key, data, first, last)
}

// GetRanges implements Backend. Any unsatisfiable range fails the whole
// request; parts come back in request order.
func (l *Local) GetRanges(ctx context.Context, bucket, key string, ranges [][2]int64) ([][]byte, error) {
	data, err := l.read(ctx, "get_ranges", bucket, key)
	if err != nil {
		return nil, err
	}
	out := make([][]byte, len(ranges))
	for i, r := range ranges {
		if out[i], err = cut("get_ranges", bucket, key, data, r[0], r[1]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Select implements Backend: Lend's response, owned.
func (l *Local) Select(ctx context.Context, bucket, key string, req selectengine.Request) (res *selectengine.Result, err error) {
	err = l.Lend(ctx, bucket, key, req, func(r *selectengine.Result) error { res = r.Own(); return nil })
	return res, err
}

// Lend implements Selector: selectengine.Run. The request's capabilities
// are clamped to what this backend advertises, so asking for a switched-off
// extension fails with KindUnsupported; any other rejection is a bad request.
func (l *Local) Lend(ctx context.Context, bucket, key string, req selectengine.Request, sink func(*selectengine.Result) error) error {
	data, err := l.read(ctx, "select", bucket, key)
	if err != nil {
		return err
	}
	req.Capabilities = req.Capabilities.Intersect(l.caps)
	lent := false
	if err = selectengine.Run(data, req, func(res *selectengine.Result) error { lent = true; return sink(res) }); lent || err == nil {
		return err
	} else if errors.Is(err, selectengine.ErrUnsupported) {
		return NewError("select", bucket, key, KindUnsupported, err)
	}
	return NewError("select", bucket, key, KindBadRequest, err)
}

// List implements Backend.
func (l *Local) List(ctx context.Context, bucket, prefix string) ([]string, error) {
	if err := ctxErr(ctx, "list", bucket, prefix); err != nil {
		return nil, err
	}
	keys, err := l.objs.List(bucket, prefix)
	if err != nil {
		return nil, NewError("list", bucket, prefix, KindInternal, err)
	}
	return keys, nil
}

// Size implements Backend.
func (l *Local) Size(ctx context.Context, bucket, key string) (int64, error) {
	if err := ctxErr(ctx, "size", bucket, key); err != nil {
		return 0, err
	}
	n, err := l.objs.Size(bucket, key)
	if err != nil {
		return 0, NewError("size", bucket, key, KindInternal, err)
	}
	return n, nil
}

// Put implements Putter (loading helper; not a metered query operation).
func (l *Local) Put(ctx context.Context, bucket, key string, data []byte) error {
	if err := ctxErr(ctx, "put", bucket, key); err != nil {
		return err
	}
	if err := l.objs.Write(bucket, key, data); err != nil {
		return NewError("put", bucket, key, KindInternal, err)
	}
	return nil
}

// Capabilities implements Backend.
func (l *Local) Capabilities() selectengine.Capabilities { return l.caps }

// Profile implements Backend.
func (l *Local) Profile() Profile { return l.profile }
