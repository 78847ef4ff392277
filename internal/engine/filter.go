package engine

import "pushdowndb/internal/sqlparse"

// Section IV: filter strategies. The server-side baseline and the S3-side
// filter are the planner's baseline and filtered access paths, which
// DB.QueryForced runs on demand; Section IV-A's index strategy as the paper
// ran it stays a hand operator (IndexFilter), since its fetch policies are no
// access path.

// serverSideFilter is the baseline access path's scan: it loads the whole
// table with plain GETs and filters locally, billing one server row per
// loaded row for the filter pass when there is one (pred non-nil).
func (e *Exec) serverSideFilter(table string, pred sqlparse.Expr) (*Relation, error) {
	defer e.scope("server filter " + table).end(nil)
	perRow := int64(0)
	if pred != nil {
		perRow = 1
	}
	rel, err := e.loadMetered("load "+table, e.NextStage(), Load{Table: table}, perRow)
	if err != nil {
		return nil, err
	}
	return e.filterLocal(rel, pred)
}

// IndexFilterOptions tunes the Section IV-A index strategy.
type IndexFilterOptions struct {
	// MultiRange batches all byte ranges of one partition into a single
	// multi-range GET (the paper's Suggestion 1) instead of one request
	// per selected row.
	MultiRange bool
}

// IndexFilter is Section IV-A as the paper ran it (Fig. 1, Fig1-S1): it
// resolves a predicate over the indexed column against the live index on
// table(column), then fetches exactly the matching data rows by byte range
// — one GET per row, or one multi-range GET per partition — deliberately
// without the IndexScan's coalescing and batching, which is what the two
// figures compare against. indexedPredicate is expressed over the index
// objects' value column, e.g. "value <= 100". A table with no live index
// on column (never built, dropped, or reloaded since) is refused.
func (e *Exec) IndexFilter(table, column, indexedPredicate string, opts IndexFilterOptions) (*Relation, error) {
	ent, err := e.liveIndex(table, column)
	if err != nil {
		return nil, err
	}
	pol := fetchPerRow
	if opts.MultiRange {
		pol = fetchMultiRange
	}
	pred, err := sqlparse.ParseExpr(indexedPredicate)
	if err != nil {
		return nil, err
	}
	rel, _, _, err := e.indexFetch(table, ent.Column, pred, pol)
	return rel, err
}
