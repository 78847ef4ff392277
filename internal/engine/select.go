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
// traced and lent to its consumer in one place, doSelect. Results may be
// shared with the cache and with other queries — callers must not mutate
// them.

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

// consumed carries a sink's error back through the pipeline, which returns
// it as is, for doSelect to tell it from storage's.
type consumed struct{ error }

// doSelect issues one S3 Select against an object of table through its
// backend's pipeline, billed to st, describes it on a "select <key>" child
// of st's span by how the pipeline served it, ends the span and lends the
// response to sink. A storage error names key; sink's comes back as is.
func (e *Exec) doSelect(ctx context.Context, st step, table, key string, req selectengine.Request, sink func(*selectengine.Result) error) error {
	sp := st.sp.Child("select " + key)
	defer sp.End()
	err := e.db.store(table).Select(ctx, st.Phase, key, req, func(res *selectengine.Result) error {
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
		sp.End()
		if err := sink(res); err != nil {
			return consumed{err}
		}
		return nil
	})
	if ce, ok := err.(consumed); ok || err == nil {
		return ce.error
	}
	return fmt.Errorf("engine: select on %s: %w", key, err)
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
