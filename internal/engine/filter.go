package engine

import (
	"context"

	"pushdowndb/internal/csvx"
	"pushdowndb/internal/obs"
	"pushdowndb/internal/sqlparse"
)

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
	sp := e.beginSpan("server filter " + table)
	defer sp.End()
	prev := e.setSpanParent(sp)
	defer e.restoreSpanParent(prev)
	stage := e.NextStage()
	rel, err := e.LoadTable("load "+table, stage, table)
	if err != nil {
		return nil, err
	}
	e.Metrics.Phase("load "+table, stage).AddServerRows(int64(len(rel.Rows)))
	filtered, err := e.filterLocal(rel, pred)
	if err != nil || items == nil {
		return filtered, err
	}
	return e.projectLocal(filtered, items)
}

// S3SideFilter pushes both the predicate and the projection into S3
// Select — the "S3-side filter" of Fig. 1.
func (e *Exec) S3SideFilter(table, predicate, projection string) (*Relation, error) {
	if projection == "" {
		projection = "*"
	}
	sql := "SELECT " + projection + " FROM S3Object"
	if predicate != "" {
		sql += " WHERE " + predicate
	}
	stage := e.NextStage()
	return e.SelectRows("s3 filter "+table, stage, table, sql)
}

// IndexFilterOptions tunes the Section IV-A index strategy.
type IndexFilterOptions struct {
	// MultiRange batches all byte ranges of one partition into a single
	// multi-range GET (the paper's Suggestion 1) instead of one request
	// per selected row.
	MultiRange bool
}

// IndexFilter resolves a predicate over the indexed column against the
// index table (phase 1), then fetches the matching data rows with ranged
// GETs (phase 2) — Section IV-A. indexedPredicate is expressed over the
// index table's "value" column, e.g. "value <= 100".
func (e *Exec) IndexFilter(table, column, indexedPredicate string, opts IndexFilterOptions) (*Relation, error) {
	idxTable := IndexTableName(table, column)

	// Phase 1: push the predicate to the index table via S3 Select. The
	// header comes from a tiny ranged GET (we never load whole partitions
	// in this strategy).
	stage1 := e.NextStage()
	isp := e.beginSpan("index lookup " + table)
	idxPhase := e.tablePhase("index lookup", stage1, idxTable)
	dataKeys, partRanges, err := e.indexRangeProbe(idxPhase, isp, table, idxTable, indexedPredicate)
	if err != nil {
		endSpanErr(isp, err)
		return nil, err
	}
	e.endPhaseSpan(isp, idxPhase)
	header, err := e.TableHeader("index lookup", stage1, table)
	if err != nil {
		return nil, err
	}

	// Phase 2: fetch each matching row by byte range — deliberately
	// without the IndexScan path's coalescing/batching, so the figure can
	// compare per-row GETs against the single multi-range GET.
	stage2 := e.NextStage()
	fetch := e.tablePhase("row fetch", stage2, table)
	fsp := e.beginSpan("row fetch " + table)
	defer func() { e.endPhaseSpan(fsp, fetch) }()
	backend := e.db.backendFor(table)
	return e.fetchRangeRows(fsp, header, dataKeys, partRanges, func(ctx context.Context, ksp *obs.Span, key string, ranges [][2]int64) ([][]byte, error) {
		ksp.SetInt("ranges", int64(len(ranges)))
		if opts.MultiRange {
			frags, err := backend.GetRanges(ctx, e.db.bucket, key, ranges)
			if err != nil {
				return nil, err
			}
			fetch.AddGetRequest(fragBytes(frags))
			return frags, nil
		}
		frags := make([][]byte, len(ranges))
		for j, rg := range ranges {
			frag, err := backend.GetRange(ctx, e.db.bucket, key, rg[0], rg[1])
			if err != nil {
				return nil, err
			}
			fetch.AddRowFetchRequest(int64(len(frag)))
			frags[j] = frag
		}
		return frags, nil
	})
}

// fetchRangeRows is phase 2 of both index access paths (the Fig. 1
// IndexFilter and the planner's IndexScan): for every data partition with
// matching byte ranges, get issues — and meters, each path in its own way —
// the partition's ranged GETs under a "fetch <key>" child of sp; the
// returned CSV fragments decode to rows, and the partitions' rows
// concatenate in partition order under the table's header.
func (e *Exec) fetchRangeRows(sp *obs.Span, header, dataKeys []string, partRanges [][][2]int64,
	get func(ctx context.Context, ksp *obs.Span, key string, ranges [][2]int64) ([][]byte, error)) (*Relation, error) {
	partRows := make([][][]string, len(dataKeys))
	err := e.forEachPart(dataKeys, func(ctx context.Context, i int, key string) error {
		if len(partRanges[i]) == 0 {
			return nil
		}
		ksp := sp.Child("fetch " + key)
		defer ksp.End()
		frags, err := get(ctx, ksp, key, partRanges[i])
		if err != nil {
			return err
		}
		for _, frag := range frags {
			_, rows, err := csvx.Decode(frag, false)
			if err != nil {
				return err
			}
			partRows[i] = append(partRows[i], rows...)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var rows [][]string
	for _, part := range partRows {
		rows = append(rows, part...)
	}
	return FromStringsN(header, rows, e.workers()), nil
}

// fragBytes totals the bytes a ranged GET returned.
func fragBytes(frags [][]byte) int64 {
	var total int64
	for _, f := range frags {
		total += int64(len(f))
	}
	return total
}
