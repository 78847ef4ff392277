package engine

import (
	"context"
	"fmt"

	"pushdowndb/internal/selectengine"
	"pushdowndb/internal/sqlparse"
)

// The select path. Every S3 Select the engine issues goes through the
// table's backend pipeline (composed in Open: result cache over scan
// sharing over the backend, whichever are configured), which bills it from
// the Served stamp it left on the response (s3api.Metered.Select), and is
// traced in one place, doSelect. Results may be shared with the cache and
// with other queries — callers must not mutate them.

// request is every S3 Select request the engine sends table: stmt, printed
// once, with the table's header and its backend's advertised capabilities.
// Every partition of a fan-out, the result cache and scan sharing read that
// one statement.
func (db *DB) request(table string, stmt *sqlparse.Select) selectengine.Request {
	return selectengine.NewRequest(stmt, true, db.store(table).Capabilities())
}

// scanSelect is the S3 Select statement returning items (every column, *,
// for none) of the rows where keeps (every row when nil).
func scanSelect(items []sqlparse.SelectItem, where sqlparse.Expr) *sqlparse.Select {
	if len(items) == 0 {
		items = []sqlparse.SelectItem{{Expr: &sqlparse.Star{}}}
	}
	return &sqlparse.Select{Items: items, Table: "S3Object", Where: where, Limit: -1}
}

// selectOnParts runs req against every partition of the table through its
// backend's pipeline and returns the per-partition results, metered on st.
// Each partition select becomes a child span of st's. each, when non-nil,
// sees partition i's response inside the fan-out, under its context: a
// consumer's decode, overlapping the selects still in flight, after which
// the result is not kept (nil); its error fails the fan-out.
func (e *Exec) selectOnParts(st step, table string, req selectengine.Request, each func(ctx context.Context, i int, res *selectengine.Result) error) ([]*selectengine.Result, error) {
	keys, err := e.parts(table)
	if err != nil {
		return nil, err
	}
	results := make([]*selectengine.Result, len(keys))
	err = e.forEachPart(keys, func(ctx context.Context, i int, key string) error {
		res, err := e.doSelect(ctx, st, table, key, req)
		if err != nil {
			return err
		}
		if each != nil {
			return each(ctx, i, res)
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// doSelect issues one S3 Select against an object of table through its
// backend's pipeline, billed to st, and describes it on a "select <key>"
// child of st's span by how the pipeline served it. Its error names key.
func (e *Exec) doSelect(ctx context.Context, st step, table, key string, req selectengine.Request) (*selectengine.Result, error) {
	sp := st.sp.Child("select " + key)
	defer sp.End()
	res, err := e.db.store(table).Select(ctx, st.Phase, key, req)
	if err != nil {
		return nil, fmt.Errorf("engine: select on %s: %w", key, err)
	}
	how := res.Served
	if how.Cache != "" {
		sp.SetStr("cache", how.Cache)
	}
	if how.Sharers > 1 {
		sp.SetInt("sharers", int64(how.Sharers))
	}
	if how.Sharers > 0 {
		share := "leader"
		if how.Coalesced {
			share = "sharer"
		}
		sp.SetStr("share", share)
	}
	sp.SetInt("rows", res.Stats.RowsReturned)
	sp.SetInt("bytes", res.Stats.BytesReturned)
	return res, nil
}

// cachedScanFrac reports what fraction of a table's partitions have req's
// response resident in the result cache (0 with caching off). It shares the
// execution's partition-listing memo, so planning adds no extra List call.
// Residency is peeked without promoting entries.
func (e *Exec) cachedScanFrac(table string, req selectengine.Request) float64 {
	c := e.db.resultCache
	if c == nil || c.Len() == 0 {
		// Empty cache: skip even the (memoized) listing — this runs on
		// every plan of every table, including fully cold first queries.
		return 0
	}
	keys, err := e.parts(table)
	if err != nil {
		return 0
	}
	hits := c.Resident(e.db.store(table).Name(), e.db.bucket, keys, req)
	return float64(hits) / float64(len(keys))
}
