package engine

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"pushdowndb/internal/cloudsim"
	"pushdowndb/internal/index"
	"pushdowndb/internal/s3api"
	"pushdowndb/internal/selectengine"
	"pushdowndb/internal/sqlparse"
	"pushdowndb/internal/value"
)

// The IndexScan access path (paper Section IV-A, grown into a planner
// strategy): resolve the indexable part of a table's predicate against the
// per-partition index objects with one pushed S3 Select each, coalesce the
// returned byte ranges, fetch them with batched multi-range GETs, and
// re-apply the full filter over the decoded candidate rows on the server.
// The re-filter makes gap coalescing safe — a merged range may drag a few
// unmatched neighbour rows along — and costs one local pass the cost model
// prices identically (cloudsim.EstimateIndexScan replays this exact
// request pattern).

// IndexCandidate is a planner-selected index for one table scan: the
// manifest entry plus the conjunction of the scan's filter conjuncts the
// index can resolve.
type IndexCandidate struct {
	Entry index.Entry
	// Pred is the AND of the indexable conjuncts, in data-column form.
	Pred sqlparse.Expr
	// MatchedRows is how many data rows Pred keeps (stats probe).
	MatchedRows int64
}

// indexCandidate inspects a table's validated manifest for an index that
// can resolve part of the filter. When several indexed columns appear in
// the filter, the lexically first column wins (deterministic plans).
func (db *DB) indexCandidate(ctx context.Context, table string, filter sqlparse.Expr) *IndexCandidate {
	if filter == nil || !hasComparableConjunct(filter) {
		return nil
	}
	man := db.indexManifest(ctx, table)
	if len(man.Indexes) == 0 {
		return nil
	}
	conjs := sqlparse.Conjuncts(sqlparse.StripQualifiers(filter))
	cols := make([]string, 0, len(man.Indexes))
	for col := range man.Indexes {
		cols = append(cols, col)
	}
	sort.Strings(cols)
	for _, col := range cols {
		ent := man.Indexes[col]
		if pred := sqlparse.AndAll(indexableConjuncts(conjs, ent.Column)); pred != nil {
			return &IndexCandidate{Entry: ent, Pred: pred}
		}
	}
	return nil
}

// hasComparableConjunct cheaply pre-screens a filter for any shape an
// index could possibly serve, so unindexed-looking queries skip the
// manifest read entirely.
func hasComparableConjunct(filter sqlparse.Expr) bool {
	for _, c := range sqlparse.Conjuncts(filter) {
		switch c.(type) {
		case *sqlparse.Binary, *sqlparse.Between, *sqlparse.In:
			return true
		}
	}
	return false
}

// indexableConjuncts returns the conjuncts an index on column can resolve:
// comparisons, BETWEEN and IN over exactly that column with literal
// operands. Everything else stays in the residual filter.
func indexableConjuncts(conjs []sqlparse.Expr, column string) []sqlparse.Expr {
	var out []sqlparse.Expr
	for _, c := range conjs {
		if isIndexableConjunct(c, column) {
			out = append(out, c)
		}
	}
	return out
}

func isIndexableConjunct(e sqlparse.Expr, column string) bool {
	isCol := func(x sqlparse.Expr) bool {
		c, ok := x.(*sqlparse.Column)
		return ok && sqlparse.SameName(c.Name, column)
	}
	isLit := func(x sqlparse.Expr) bool {
		_, ok := x.(*sqlparse.Literal)
		return ok
	}
	switch t := e.(type) {
	case *sqlparse.Binary:
		switch t.Op {
		case sqlparse.OpEq, sqlparse.OpLt, sqlparse.OpLe, sqlparse.OpGt, sqlparse.OpGe:
		default:
			return false
		}
		return (isCol(t.L) && isLit(t.R)) || (isLit(t.L) && isCol(t.R))
	case *sqlparse.Between:
		return !t.Not && isCol(t.X) && isLit(t.Lo) && isLit(t.Hi)
	case *sqlparse.In:
		if t.Not || !isCol(t.X) {
			return false
		}
		for _, x := range t.List {
			if !isLit(x) {
				return false
			}
		}
		return true
	}
	return false
}

// indexValuePred rewrites a data-column predicate into the index objects'
// schema: every reference to the indexed column becomes the value column.
func indexValuePred(pred sqlparse.Expr) sqlparse.Expr {
	return sqlparse.Rewrite(pred, func(n sqlparse.Expr) sqlparse.Expr {
		if _, ok := n.(*sqlparse.Column); ok {
			return &sqlparse.Column{Name: index.ValueColumn}
		}
		return n
	})
}

// fetchPolicy is how hop 2 of the index path turns one data partition's
// matched byte ranges into GETs.
type fetchPolicy int

const (
	// fetchCoalesced is the IndexScan's: ranges merged over small gaps, at
	// most index.DefaultMaxRangesPerGet per multi-range GET; the caller
	// re-filters the candidates, which may include gap neighbours.
	fetchCoalesced fetchPolicy = iota
	// fetchPerRow is Fig. 1's: one ranged GET per matched row, all the 2020
	// S3 API offered.
	fetchPerRow
	// fetchMultiRange is Fig1-S1's (Suggestion 1): every range of a
	// partition in one multi-range GET, uncoalesced.
	fetchMultiRange
)

// indexRangeProbe is hop 1 of the index path: it lists the data and index
// partitions, checks they are aligned, pushes the offsets select against
// every index object, each response decoded as a part (selectParts), and
// parses the matching byte ranges, per data partition and in index order.
func (e *Exec) indexRangeProbe(st step, table, idxTable string, valuePred sqlparse.Expr) (dataKeys []string, partRanges [][][2]int64, err error) {
	dataKeys, err = e.parts(table)
	if err != nil {
		return nil, nil, err
	}
	idxKeys, err := e.parts(idxTable)
	if err != nil {
		return nil, nil, err
	}
	if len(idxKeys) != len(dataKeys) {
		return nil, nil, fmt.Errorf("engine: index %s has %d partitions, table %s has %d",
			idxTable, len(idxKeys), table, len(dataKeys))
	}
	parts, err := e.selectParts(st, idxTable, e.db.request(idxTable, index.Probe(valuePred)), &decoder{})
	if err != nil {
		return nil, nil, err
	}
	partRanges = make([][][2]int64, len(parts))
	for i, rows := range parts {
		if partRanges[i], err = index.ParseRanges(rows); err != nil {
			return nil, nil, fmt.Errorf("engine: %s: %w", idxKeys[i], err)
		}
	}
	return dataKeys, partRanges, nil
}

// indexFetch runs the two-hop index access through cand's index: the
// pushed probe of the index objects with the predicate cand resolves, over
// the value column, and the data table's header from a tiny ranged GET,
// then the matching data rows fetched by byte range under pol and decoded
// through d, typed in cols (none: every column). It returns what d answers
// (under fetchCoalesced the candidates are a superset of the matches, which
// d's where must re-filter), the number of multi-range GETs fetchCoalesced
// issued, and the fetch stage (hash joins overlap it). The two figure
// policies meter under the phase names Fig. 1 has always reported and
// charge no server row work: they fetch exactly the matching rows.
func (e *Exec) indexFetch(table string, cand *IndexCandidate, cols []string, pol fetchPolicy, d *decoder) (*Relation, int64, int, error) {
	idxTable, valuePred := index.Table(table, cand.Entry.Column), indexValuePred(cand.Pred)
	probeName, fetchName := "index select "+table, "index fetch "+table
	probeSpan, fetchSpan := probeName, fetchName
	if pol != fetchCoalesced {
		probeName, fetchName = "index lookup", "row fetch"
		probeSpan, fetchSpan = probeName+" "+table, fetchName+" "+table
	}

	stage1 := e.NextStage()
	probe := e.step(probeSpan, probeName, stage1, idxTable)
	dataKeys, partRanges, err := e.indexRangeProbe(probe, table, idxTable, valuePred)
	probe.end(err)
	if err != nil {
		return nil, 0, 0, err
	}
	header, err := e.TableHeader(probeName, stage1, table)
	if err != nil {
		return nil, 0, 0, err
	}
	header, keep, err := prune(header, cols)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("engine: table %q: %w", table, err)
	}

	// Hop 2: every data partition with matching byte ranges has them fetched
	// and metered under pol, under a "fetch <key>" child of the step's span.
	// The fragments are rows of the object with no header: copied into one
	// body of the partition's own, a line each, they are a part the one
	// decoder decodes under the table's header, inside the fan-out, and the
	// rows of every partition are cut in partition order after it.
	stage2 := e.NextStage()
	fetch := e.step(fetchSpan, fetchName, stage2, table)
	s := e.db.store(table)
	var gets atomic.Int64
	d.e, d.st, d.header = e, fetch, header
	out, err := d.finish(d.run(dataKeys, func(ctx context.Context, i int) error {
		key, ranges, p := dataKeys[i], partRanges[i], &d.parts[i]
		if len(ranges) == 0 {
			p.cols = header // no rows, but the columns of an empty answer
			return nil
		}
		p.sp = fetch.sp.Child("fetch " + key)
		var frags [][]byte
		switch pol {
		case fetchPerRow:
			p.sp.SetInt("ranges", int64(len(ranges)))
			for _, rg := range ranges {
				frag, err := s.GetRange(ctx, fetch.Phase, key, rg[0], rg[1])
				if err != nil {
					return err
				}
				fetch.AddRowFetchRequest(int64(len(frag)))
				frags = append(frags, frag)
			}
		case fetchMultiRange:
			p.sp.SetInt("ranges", int64(len(ranges)))
			var err error
			if frags, err = s.GetRanges(ctx, fetch.Phase, key, ranges); err != nil {
				return err
			}
			fetch.AddGetRequest(fragBytes(frags))
		default:
			for _, batch := range index.Batches(index.Coalesce(ranges, index.DefaultCoalesceGap), index.DefaultMaxRangesPerGet) {
				got, err := s.GetRanges(ctx, fetch.Phase, key, batch)
				if err != nil {
					return err
				}
				total := fragBytes(got)
				fetch.AddRangedGetRequest(total, int64(len(batch)))
				gets.Add(1)
				p.sp.AddInt("bytes", total)
				p.sp.AddInt("ranges", int64(len(batch)))
				frags = append(frags, got...)
			}
		}
		body := make([]byte, 0, fragBytes(frags)+int64(len(frags)))
		for _, frag := range frags {
			body = append(append(body, frag...), '\n')
		}
		p.openRows(header, body)
		p.keep = keep
		return nil
	}))
	if err == nil && pol == fetchCoalesced {
		fetch.AddServerRows(d.decoded)
		fetch.sp.SetInt("gets", gets.Load())
	}
	fetch.end(err)
	if err != nil {
		return nil, 0, 0, err
	}
	return out, gets.Load(), stage2, nil
}

// fragBytes totals the bytes a ranged GET returned.
func fragBytes(frags [][]byte) int64 {
	var total int64
	for _, f := range frags {
		total += int64(len(f))
	}
	return total
}

// AccessPlan records the planner's access decision for a single-table query
// that has one to make — its table has a usable secondary index, or its tail
// has a shape storage could decide (pushdown.go): the choice between the
// pushed filtered scan, plain or with its tail pushed, the IndexScan and the
// server-side baseline load, with the estimates that drove it. The table,
// its statistics and its index candidate are the scan's (TableScan.Access).
type AccessPlan struct {
	Strategy string // StrategyIndexScan, StrategyFiltered or StrategyBaseline
	Reason   string
	// Pushed is what a filtered plan pushes beyond selection + projection:
	// PushedTopK, PushedGroupBy or nothing. NotPushed says what ruled the tail
	// of a grouped or top-K statement out.
	Pushed, NotPushed string
	// Sample is what the statistics sample said of the tail's keys: a top-K's
	// threshold literal; the groups it showed and how often the rarest.
	Sample string
	// EstRows and ActualRows are the rows the pushed-tail request was expected
	// to return and did. Fallback is, after execution, which check of the
	// pushed tail failed (a Fallback* reason), so that the statement reran on
	// the plain filtered path; empty when it held.
	EstRows, ActualRows int64
	Fallback            string
	// Estimates maps each candidate to its predicted runtime/cost: the
	// strategies by name, the filtered scan with its tail pushed by Pushed's.
	Estimates map[string]cloudsim.PlanEstimate
	// EstRanges and EstRangedGets are the predicted coalesced-range and
	// multi-range-GET counts of the IndexScan strategy.
	EstRanges, EstRangedGets int64
	// RangedGets is the number of multi-range GETs actually issued (filled
	// in by execution when the IndexScan strategy ran).
	RangedGets int64

	push *tailPush // the planned tail; run when Pushed is set
}

// Why a pushed tail's answer was not trusted (AccessPlan.Fallback).
const (
	FallbackGroupsMissed   = "groups_missed"   // filtered rows fell outside every sampled group
	FallbackGroupsOverlap  = "groups_overlap"  // the groups' row counts do not add up to COUNT(*)
	FallbackShortThreshold = "short_threshold" // fewer than K rows passed the threshold
)

// writeAccess renders the scan's access decision for EXPLAIN.
func (sc *TableScan) writeAccess(b *strings.Builder) {
	ap := sc.Access
	strategy := ap.Strategy
	if ap.Pushed != "" {
		strategy += " + " + ap.Pushed
	}
	fmt.Fprintf(b, "access plan for %s (on %s): %s — %s\n", sc.Table, sc.Backend, strategy, ap.Reason)
	if sc.StatsSource != "" {
		fmt.Fprintf(b, "  [%d rows, %s]\n", sc.Stats.Rows, statsNote(sc.Stats, sc.StatsSource, sc.CachedStats))
	}
	switch {
	case ap.Pushed != "":
		fmt.Fprintf(b, "  pushed: %s, %s, ~%d rows expected back\n", ap.Pushed, cmp.Or(ap.Sample, "a plain aggregation"), ap.EstRows)
	case ap.NotPushed != "":
		fmt.Fprintf(b, "  not pushed beyond selection + projection: %s\n", ap.NotPushed)
	}
	if sc.Index != nil {
		fmt.Fprintf(b, "  index %s(%s): predicate %s, ~%d matching rows, ~%d ranges in ~%d multi-range GETs\n",
			sc.Table, sc.Index.Entry.Column, sc.Index.Pred.String(),
			sc.Index.MatchedRows, ap.EstRanges, ap.EstRangedGets)
	}
	writeEstimates(b, "  ", 16, ap.Estimates)
}

// planAccess is the one access decision of a single-table SELECT. It returns
// nil — and the plain pushed scan runs with zero extra requests — unless the
// table has a live index that resolves part of the WHERE clause or the
// statement's tail has a pushable shape (decided from the AST alone). Then
// it reads the table's statistics object and prices every candidate by
// replaying what its execution will meter: the pushed filtered scan and, with
// an index, the IndexScan and the baseline load (whose statistics, without an
// object, are a header GET and a pushed COUNT probe, as the join planner's);
// with an object, the filtered scan with its tail pushed (planTail). Cheaper
// chooses; in doubt — no object, or keys its sample cannot evaluate — filtered,
// unpriced, with no further request.
func (e *Exec) planAccess(sel *sqlparse.Select, sc *TableScan) (*AccessPlan, error) {
	table := sel.Table
	sc.Filter = sqlparse.StripQualifiers(sel.Where)
	sc.Index = e.db.indexCandidate(e.ctx, table, sc.Filter)
	cand := sc.Index
	kind, why := e.db.pushableShape(sel)
	if cand == nil && kind == "" {
		return nil, nil
	}
	db := e.db
	var err error

	defer e.scope("plan").end(nil)
	stage := e.NextStage()
	sc.Backend = db.store(table).Name()
	ap := &AccessPlan{Strategy: StrategyFiltered, NotPushed: why}
	var ts *statsObj
	if cand == nil {
		if ts = e.statsObject(table, stage); ts != nil {
			sc.Cols = ts.cols
		}
	} else if ts, sc.Cols, err = e.tableShape(table, stage); err != nil {
		return nil, err
	}
	if err := bindStatement(sel, sc.Cols); err != nil { // no header held: nothing to refuse
		return nil, err
	}
	filtered := int64(-1)
	if kind != "" {
		filtered = e.planTail(sel, kind, ts, stage, ap)
	}
	if cand == nil && (ts == nil || (ap.push == nil && filtered < 0)) {
		// In doubt, filtered, and no further request: nothing to price with.
		ap.Reason = "not priced: the plain pushed scan"
		if ap.push != nil { // a plain COUNT: planTail needs no sample for it
			parts, _ := e.parts(table) // a table that cannot be listed fails at its scan
			ap.Pushed, ap.EstRows = kind, int64(len(parts))
			ap.Reason = "not priced: one row per partition whatever the table holds"
		}
		return ap, nil
	}

	if cand != nil {
		filtered = -1 // the probe counts the index predicate's rows too
	}
	if err := e.scanStats(sc, ts, filtered, stage); err != nil {
		return nil, err
	}
	st := &sc.Stats
	// The statement's tail finishes every filtered row, unless the whole
	// statement is pushed and nothing is left to finish.
	if !isSimple(sel) {
		st.LocalRows = st.FilteredRows
	}
	ap.Estimates = map[string]cloudsim.PlanEstimate{
		StrategyFiltered: cloudsim.EstimateFilteredScan(db.Cfg, db.Sim, db.Pricing, *st),
	}
	if cand != nil {
		withTail := *st
		withTail.LocalRows = st.FilteredRows
		ap.Estimates[StrategyIndexScan] = cloudsim.EstimateIndexScan(db.Cfg, db.Sim, db.Pricing, withTail, indexScanStats(cand))
		ap.Estimates[StrategyBaseline] = cloudsim.EstimateBaselineScan(db.Cfg, db.Sim, db.Pricing, withTail)
		ap.EstRanges = cloudsim.ExpectedCoalescedRanges(cand.MatchedRows, st.Rows)
		if ap.EstRanges > 0 {
			parts := int64(max(st.Partitions, 1))
			perPart := (ap.EstRanges + parts - 1) / parts
			ap.EstRangedGets = parts * ((perPart + index.DefaultMaxRangesPerGet - 1) / index.DefaultMaxRangesPerGet)
		}
		ap.Reason = fmt.Sprintf("index on %s matches ~%d of %d rows (%.2f%%); ",
			cand.Entry.Column, cand.MatchedRows, st.Rows,
			100*float64(cand.MatchedRows)/float64(max(st.Rows, 1)))
	}
	if push := ap.push; push != nil {
		ap.EstRows = push.estRows
		local := push.estRows
		if kind == PushedGroupBy { // one row back per partition, one merged row per group to finish
			ap.EstRows, local = int64(max(st.Partitions, 1)), int64(len(push.groups))
		}
		s := e.requestStats(*st, table, push.req)
		s.FilteredRows, s.LocalRows = ap.EstRows, local
		ap.Estimates[kind] = cloudsim.EstimateFilteredScan(db.Cfg, db.Sim, db.Pricing, s)
	}
	best := StrategyFiltered
	for _, c := range []string{StrategyBaseline, StrategyIndexScan, kind} {
		if est, ok := ap.Estimates[c]; ok && est.Cheaper(ap.Estimates[best]) {
			best = c
		}
	}
	switch {
	case best == kind:
		ap.Pushed = kind
	case best != StrategyFiltered:
		ap.Strategy = best
	}
	if ap.push != nil && ap.Pushed == "" {
		ap.NotPushed = "the plan without it is estimated cheaper"
	}
	ap.Reason += best + " estimated cheapest"
	return ap, nil
}

// forceAccess is the access decision a caller forces (QueryForced): the
// strategy as given, unpriced, with no statistics request. An IndexScan runs
// through the index the planner would consider (indexCandidate) and needs
// one; an unknown strategy, or one that is no single-table access path, is
// refused.
func (e *Exec) forceAccess(sel *sqlparse.Select, sc *TableScan, strategy string) (*AccessPlan, error) {
	table := sel.Table
	sc.Filter = sqlparse.StripQualifiers(sel.Where)
	switch strategy {
	case StrategyBaseline, StrategyFiltered:
	case StrategyIndexScan:
		var err error
		if sc.Index, err = e.indexFor(table, sc.Filter, strategy); err != nil {
			return nil, err
		}
	default:
		return nil, forcedError(e.db, table, strategy, fmt.Sprintf("not a single-table access path (%s, %s or %s)",
			StrategyBaseline, StrategyFiltered, StrategyIndexScan))
	}
	sc.Backend = e.db.store(table).Name()
	return &AccessPlan{Strategy: strategy, Reason: "forced"}, nil
}

// indexFor is the index candidate (indexCandidate) a forced IndexScan or
// IndexFilter runs on; without one, strategy's refusal says why.
func (e *Exec) indexFor(table string, filter sqlparse.Expr, strategy string) (*IndexCandidate, error) {
	if cand := e.db.indexCandidate(e.ctx, table, filter); cand != nil {
		return cand, nil
	}
	why := "no conjunct of the WHERE clause compares an indexed column with literals"
	if len(e.db.indexManifest(e.ctx, table).Indexes) == 0 {
		why = "the table has no live index"
	}
	return nil, forcedError(e.db, table, strategy, why)
}

// handStatement parses a hand operator's statement: one over tables tables,
// grouped by keys keys, with no ORDER BY or LIMIT. Another shape is refused,
// as a parse error is, with a KindBadRequest error saying why.
func (db *DB) handStatement(sql, algo string, tables, keys int) (*sqlparse.Select, error) {
	sel, err := sqlparse.Parse(sql)
	why := ""
	switch {
	case err != nil:
		return nil, forcedError(db, "", algo, err.Error())
	case len(sel.Joins)+1 != tables:
		why = fmt.Sprintf("it reads %d table(s), not %d", tables, len(sel.Joins)+1)
	case len(sel.GroupBy) != keys:
		why = fmt.Sprintf("it groups by %d key(s), not %d", keys, len(sel.GroupBy))
	case len(sel.OrderBy) > 0 || sel.Limit >= 0:
		why = "it runs no ORDER BY or LIMIT"
	default:
		return sel, nil
	}
	return nil, forcedError(db, sel.Table, algo, why)
}

// forcedError is a forced strategy's refusal: a KindBadRequest error that
// says why.
func forcedError(db *DB, table, strategy, why string) error {
	return &s3api.Error{Op: "plan", Bucket: db.bucket, Key: table, Kind: s3api.KindBadRequest,
		Err: fmt.Errorf("engine: cannot force strategy %q: %s", strategy, why)}
}

// indexScanStats builds the cost model's view of an index candidate.
func indexScanStats(cand *IndexCandidate) cloudsim.IndexScanStats {
	return cloudsim.IndexScanStats{
		IndexBytes:      cand.Entry.IndexBytes,
		MatchedRows:     cand.MatchedRows,
		PredNodes:       selectengine.CountNodes(index.Probe(indexValuePred(cand.Pred))),
		MaxRangesPerGet: index.DefaultMaxRangesPerGet,
	}
}

// probeStats returns the table's planning statistics plus the row count
// matching idxPred, from the DB's stats cache or else from one probe —
// COUNT(*) and a SUM(CASE ...) count per predicate — run over the sample of
// the table's statistics object ts, locally, every count but the first
// scaled to the table, or, for a table with no usable object (ts == nil) or
// a probe the sample cannot evaluate, pushed to storage once per partition:
// a scan of the whole table. Shape-dependent fields (Cols, FilterNodes,
// ProjCols, Profile, CachedFrac) are left for the caller.
func (e *Exec) probeStats(ts *statsObj, table string, filter, idxPred sqlparse.Expr, stage int) (cs cachedStats, cached bool, err error) {
	key := fmt.Sprintf("%s\x00%s\x00%s\x00%v\x00idx=%v", e.db.store(table).Name(), e.db.bucket, table, filter, idxPred)
	e.db.statsMu.Lock()
	cs, ok := e.db.statsCache[key]
	e.db.statsMu.Unlock()
	if ok {
		return cs, true, nil
	}

	probe := scanSelect([]sqlparse.SelectItem{{Expr: &sqlparse.Aggregate{Func: sqlparse.AggCount, X: &sqlparse.Star{}}}}, nil)
	for _, pred := range []sqlparse.Expr{filter, idxPred} {
		if pred != nil {
			probe.Items = append(probe.Items, sqlparse.SelectItem{Expr: sumCase(pred, &sqlparse.Literal{Val: value.Int(1)})})
		}
	}
	var counts []int64
	if ts != nil {
		rows, st, serr := e.sampleSelect(ts, table, probe, stage)
		if serr == nil {
			if counts, err = probeCounts(table, [][]Row{rows}, len(probe.Items)); err == nil {
				for i := range counts {
					counts[i] = ts.scaled(counts[i])
				}
				counts[0] = ts.rows
				st.sp.SetInt("matched", counts[min(1, len(counts)-1)])
			}
		}
		st.end(cmp.Or(serr, err))
	}
	cs.source = StatsFromObject
	if counts != nil {
		cs.stats = ts.tableStats()
	} else if err == nil {
		cs.source = StatsFromProbe
		st := e.step("plan probe "+table, "plan probe "+table, stage, table)
		d := &decoder{}
		var parts [][]Row
		if parts, err = e.selectParts(st, table, e.db.request(table, probe), d); err != nil {
			err = fmt.Errorf("engine: planning probe for %s: %w", table, err)
		} else {
			counts, err = probeCounts(table, parts, len(probe.Items))
		}
		st.end(err)
		cs.stats = cloudsim.PlanTableStats{Partitions: len(d.parts), Columnar: len(d.parts) > 0}
		for _, p := range d.parts {
			cs.stats.Bytes += p.scanned
			cs.stats.Columnar = cs.stats.Columnar && p.columnar
		}
	}
	if err != nil {
		return cs, false, err
	}
	// counts follow the probe's items: every row, then the rows the filter and the index
	// predicate keep, where there is one.
	cs.stats.Rows, cs.stats.FilteredRows, cs.idxMatched = counts[0], counts[0], counts[0]
	if filter != nil {
		cs.stats.FilteredRows = counts[1]
	}
	if idxPred != nil {
		cs.idxMatched = counts[len(counts)-1]
	}
	e.db.statsMu.Lock()
	if e.db.statsCache == nil {
		e.db.statsCache = map[string]cachedStats{}
	}
	e.db.statsCache[key] = cs
	e.db.statsMu.Unlock()
	return cs, false, nil
}

// returnedCols reports how many columns a pushed scan returns (0 = all,
// matching PlanTableStats.ProjCols semantics).
func returnedCols(req *sqlparse.Select, tableCols int) int {
	seen := make([]string, 0, len(req.Items))
	for _, it := range req.Items {
		if isStar(it) {
			return 0
		}
		sqlparse.Walk(it.Expr, func(n sqlparse.Expr) bool {
			if c, ok := n.(*sqlparse.Column); ok && !slices.ContainsFunc(seen, func(s string) bool { return sqlparse.SameName(s, c.Name) }) {
				seen = append(seen, c.Name)
			}
			return true
		})
	}
	if n := max(len(seen), 1); n < tableCols {
		return n
	}
	return 0
}
