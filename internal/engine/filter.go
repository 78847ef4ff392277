package engine

import "pushdowndb/internal/sqlparse"

// Section IV: filter strategies.

// ServerSideFilter loads the whole table with plain GETs and filters
// locally — the baseline of Fig. 1.
func (e *Exec) ServerSideFilter(table, predicate, projection string) (*Relation, error) {
	pred, err := parsePredicate(predicate)
	if err != nil {
		return nil, err
	}
	items, err := parseProjection(projection)
	if err != nil {
		return nil, err
	}
	return e.serverSideFilter(table, pred, items)
}

// serverSideFilter is ServerSideFilter over a parsed predicate and select
// list (nil items keep every column).
func (e *Exec) serverSideFilter(table string, pred sqlparse.Expr, items []sqlparse.SelectItem) (*Relation, error) {
	defer e.scope("server filter " + table).end(nil)
	rel, _, err := e.loadMetered("load "+table, e.NextStage(), Load{Table: table}, 1)
	if err != nil {
		return nil, err
	}
	filtered, err := e.filterLocal(rel, pred)
	if err != nil || items == nil {
		return filtered, err
	}
	return e.projectLocal(filtered, items)
}

// S3SideFilter pushes both the predicate and the projection into S3
// Select — the "S3-side filter" of Fig. 1.
func (e *Exec) S3SideFilter(table, predicate, projection string) (*Relation, error) {
	pred, err := parsePredicate(predicate)
	if err != nil {
		return nil, err
	}
	items, err := parseProjection(projection)
	if err != nil {
		return nil, err
	}
	return e.selectMetered("s3 filter "+table, e.NextStage(), table, e.db.request(table, scanSelect(items, pred)), 0)
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
