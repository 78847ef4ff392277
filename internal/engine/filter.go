package engine

import "pushdowndb/internal/sqlparse"

// Section IV: filter strategies. The server-side baseline and the S3-side
// filter are the planner's baseline and filtered access paths, which
// DB.QueryForced runs on demand; Section IV-A's index strategy as the paper
// ran it stays a hand operator (IndexFilter), since its fetch policies are no
// access path.

// serverSideFilter is the baseline access path's scan: it loads the whole
// table with plain GETs, typing l.Cols and keeping the rows l.Where passes
// (nil: every row) as each partition decodes, and bills one server row per
// decoded row for the filter pass when there is one. With l's grouping the
// kept rows fold as they decode, into the fold it returns for the tail to
// finish (finishTail), and no relation is built. A non-nil bind checks the
// first partition's header before the other partitions are fetched
// (loadMetered).
func (e *Exec) serverSideFilter(l Load, bind func(header []string) error) (*Relation, *groupFold, error) {
	defer e.scope("server filter " + l.Table).end(nil)
	perRow := int64(0)
	if l.Where != nil {
		perRow = 1
	}
	d := l.decoder()
	rel, err := e.loadMetered("load "+l.Table, e.NextStage(), l, perRow, bind, d)
	return rel, d.fold, err
}

// IndexFilterOptions tunes the Section IV-A index strategy.
type IndexFilterOptions struct {
	// MultiRange batches all byte ranges of one partition into a single
	// multi-range GET (the paper's Suggestion 1) instead of one request
	// per selected row.
	MultiRange bool
}

// IndexFilter runs sql, SELECT * FROM t WHERE <conjuncts>, as Section IV-A
// did in the paper (Fig. 1, Fig1-S1): it resolves the WHERE clause against the
// live index the planner would consider (indexCandidate), then fetches exactly
// the matching data rows by byte range — one GET per row, or one multi-range
// GET per partition — deliberately without the IndexScan's coalescing and
// batching, which is what the two figures compare against. It re-filters
// nothing, so every conjunct must be one the index resolves; a statement of
// another shape, or a table with no live index (never built, dropped, or
// reloaded since), is a KindBadRequest error saying why.
func (e *Exec) IndexFilter(sql string, opts IndexFilterOptions) (*Relation, error) {
	sel, cand, err := e.indexStatement(sql)
	if err != nil {
		return nil, err
	}
	pol := fetchPerRow
	if opts.MultiRange {
		pol = fetchMultiRange
	}
	rel, _, _, err := e.indexFetch(sel.Table, cand, nil, pol, &decoder{})
	return rel, err
}

// indexStatement checks IndexFilter's statement and finds the index that
// resolves its every conjunct.
func (e *Exec) indexStatement(sql string) (sel *sqlparse.Select, cand *IndexCandidate, err error) {
	sel, err = e.db.handStatement(sql, "indexing", 1, 0)
	if err == nil && (len(sel.Items) > 1 || !isStar(sel.Items[0])) {
		err = forcedError(e.db, sel.Table, "indexing", "it selects *")
	}
	if err == nil {
		cand, err = e.indexFor(sel.Table, sqlparse.StripQualifiers(sel.Where), "indexing")
	}
	if err == nil && len(sqlparse.Conjuncts(cand.Pred)) != len(sqlparse.Conjuncts(sel.Where)) {
		err = forcedError(e.db, sel.Table, "indexing", "a conjunct is not resolved by the index on "+cand.Entry.Column)
	}
	return sel, cand, err
}
