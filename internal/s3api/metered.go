package s3api

import (
	"context"
	"fmt"

	"pushdowndb/internal/cloudsim"
	"pushdowndb/internal/selectengine"
)

// Metered is the engine's handle on one registered backend: the raw
// Backend, the select pipeline composed over it and the bucket, none of
// them reachable but through its methods. Every priced operation — Get,
// GetRange, GetRanges, Size and Select, the requests the cost model prices
// — takes the open phase it is billed to, so a storage request nobody pays
// for does not compile. Get, Size and Select bill it themselves; the ranged
// reads leave the bill to their caller, whose rule depends on what the
// ranges are (a header, a statistics object, rows fetched one by one or in
// batches). List, Put, Capabilities and Profile are unpriced. A Metered is
// passed by value.
type Metered struct {
	name   string
	bucket string
	b      Backend
	sel    Selector
}

// NewMetered binds backend b, registered under name, to bucket; its select
// pipeline is b's own (Lending) until Over layers it.
func NewMetered(name, bucket string, b Backend) Metered {
	return Metered{name: name, bucket: bucket, b: b, sel: Lending(b)}
}

// Over returns m with its select pipeline wrapped by layer, which is given
// the backend's name and the pipeline so far (rescache.Cache.Over,
// scanshare.Coordinator.Over). Every other operation keeps reaching the raw
// backend.
func (m Metered) Over(layer func(backend string, inner Selector) Selector) Metered {
	m.sel = layer(m.name, m.sel)
	return m
}

// Name is the name the backend is registered under.
func (m Metered) Name() string { return m.name }

// Get returns a whole object, billed to ph as one GET of its bytes.
func (m Metered) Get(ctx context.Context, ph *cloudsim.Phase, key string) ([]byte, error) {
	data, err := m.b.Get(ctx, m.bucket, key)
	if err != nil {
		return nil, err
	}
	ph.AddGetRequest(int64(len(data)))
	return data, nil
}

// GetRange returns the inclusive byte range [first, last] of an object
// (Backend.GetRange). The caller bills it to ph.
func (m Metered) GetRange(ctx context.Context, ph *cloudsim.Phase, key string, first, last int64) ([]byte, error) {
	return m.b.GetRange(ctx, m.bucket, key, first, last)
}

// GetRanges returns several inclusive ranges of an object in one request
// (Backend.GetRanges). The caller bills it to ph.
func (m Metered) GetRanges(ctx context.Context, ph *cloudsim.Phase, key string, ranges [][2]int64) ([][]byte, error) {
	return m.b.GetRanges(ctx, m.bucket, key, ranges)
}

// Select runs an S3 Select against an object through the select pipeline
// and bills the response to ph by how the pipeline served it, before
// lending it to sink (Selector.Lend): a cache hit reached no backend and
// costs only the local re-parse; a pass shared by n requests is billed 1/n
// to each plus the sharer's own local re-filter work; anything else is one
// direct request.
func (m Metered) Select(ctx context.Context, ph *cloudsim.Phase, key string, req selectengine.Request, sink func(*selectengine.Result) error) error {
	return m.sel.Lend(ctx, m.bucket, key, req, func(res *selectengine.Result) error {
		switch how := res.Served; {
		case how.Cache == selectengine.CacheHit:
			ph.AddCacheHit(res.Stats.BytesReturned)
		case how.Sharers > 1:
			ph.AddSharedSelectRequest(selectReq(how.Pass), int64(how.Sharers), how.LocalRows)
		default:
			ph.AddSelectRequest(selectReq(res.Stats))
		}
		return sink(res)
	})
}

// selectReq converts select-engine stats into the cost model's request
// record.
func selectReq(s selectengine.Stats) cloudsim.SelectReq {
	return cloudsim.SelectReq{
		ScanBytes:       s.BytesScanned,
		ReturnedBytes:   s.BytesReturned,
		Rows:            s.RowsScanned,
		ExprNodes:       s.ExprNodes,
		Cells:           s.CellsDecoded,
		DecompressBytes: s.DecompressBytes,
	}
}

// Unbilled is the raw backend, for the engine's catalog reads that no query
// pays for: index builds (dataset preparation, like the loaders), the index
// manifest, and the live partition sizes that a manifest's or a statistics
// object's staleness stamps are checked against, all read once per DB.
func (m Metered) Unbilled() Backend { return m.b }

// List returns the keys under a prefix: partition listings are the engine's
// own catalog traffic, never billed.
func (m Metered) List(ctx context.Context, prefix string) ([]string, error) {
	return m.b.List(ctx, m.bucket, prefix)
}

// Put writes an object: dataset preparation, never billed. A backend that
// accepts no writes (no Putter) fails it as KindUnsupported.
func (m Metered) Put(ctx context.Context, key string, data []byte) error {
	p, ok := m.b.(Putter)
	if !ok {
		return NewError("put", m.bucket, key, KindUnsupported, fmt.Errorf("backend %q does not accept writes", m.name))
	}
	return p.Put(ctx, m.bucket, key, data)
}

// Capabilities is the backend's S3 Select capabilities.
func (m Metered) Capabilities() selectengine.Capabilities { return m.b.Capabilities() }

// Profile is the backend's performance and pricing profile.
func (m Metered) Profile() Profile { return m.b.Profile() }
