package engine

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"pushdowndb/internal/selectengine"
	"pushdowndb/internal/sqlparse"
	"pushdowndb/internal/value"
)

// Section VI: group-by algorithms.

// GroupAgg is one aggregation of a group-by query. Only SUM and COUNT can
// be pushed to S3 (they distribute over the CASE encoding); the local
// algorithms accept any aggregate.
type GroupAgg struct {
	Func sqlparse.AggFunc
	// Expr is the aggregated expression over the table's columns
	// (ignored for COUNT, which counts rows).
	Expr string
	// As names the output column.
	As string
}

func (a GroupAgg) itemSQL() string {
	switch a.Func {
	case sqlparse.AggCount:
		return "COUNT(*) AS " + a.As
	case sqlparse.AggSum:
		return "SUM(" + a.Expr + ") AS " + a.As
	case sqlparse.AggMin:
		return "MIN(" + a.Expr + ") AS " + a.As
	case sqlparse.AggMax:
		return "MAX(" + a.Expr + ") AS " + a.As
	case sqlparse.AggAvg:
		return "AVG(" + a.Expr + ") AS " + a.As
	}
	return ""
}

func groupItems(groupCol string, aggs []GroupAgg) string {
	parts := []string{groupCol}
	for _, a := range aggs {
		parts = append(parts, a.itemSQL())
	}
	return strings.Join(parts, ", ")
}

func groupResultCols(groupCol string, aggs []GroupAgg) []string {
	cols := []string{groupCol}
	for _, a := range aggs {
		cols = append(cols, a.As)
	}
	return cols
}

func checkPushableAggs(aggs []GroupAgg, algo string) error {
	for _, a := range aggs {
		if a.Func != sqlparse.AggSum && a.Func != sqlparse.AggCount {
			return fmt.Errorf("engine: %s supports only SUM/COUNT, got %s", algo, a.itemSQL())
		}
	}
	return nil
}

// ServerSideGroupBy loads the entire table, filters and groups locally
// (Fig. 5's baseline). filter may be empty.
func (e *Exec) ServerSideGroupBy(table, groupCol string, aggs []GroupAgg, filter string) (*Relation, error) {
	defer e.scope("server groupby " + table).end(nil)
	rel, _, err := e.loadMetered("load "+table, e.NextStage(), Load{Table: table}, 1)
	if err != nil {
		return nil, err
	}
	pred, err := parsePredicate(filter)
	if err != nil {
		return nil, err
	}
	rel, err = e.filterLocal(rel, pred)
	if err != nil {
		return nil, err
	}
	return e.groupLocal(rel, groupCol, groupItems(groupCol, aggs))
}

// groupLocal runs the local group-by step of the Section VI algorithms,
// whose group column and aggregate list arrive as SQL fragments.
func (e *Exec) groupLocal(rel *Relation, groupCol, items string) (*Relation, error) {
	keys, its, err := parseGroupBy(groupCol, items)
	if err != nil {
		return nil, err
	}
	return e.groupByLocal(rel, nil, keys, its)
}

// FilteredGroupBy pushes the projection of the referenced columns into S3
// Select (reducing returned bytes) and groups locally.
func (e *Exec) FilteredGroupBy(table, groupCol string, aggs []GroupAgg, filter string) (*Relation, error) {
	cols := projectColsForAggs(groupCol, aggs)
	sql := "SELECT " + strings.Join(cols, ", ") + " FROM S3Object"
	if filter != "" {
		sql += " WHERE " + filter
	}
	defer e.scope("filtered groupby " + table).end(nil)
	rel, err := e.selectMetered("project "+table, e.NextStage(), table, sql, 1)
	if err != nil {
		return nil, err
	}
	return e.groupLocal(rel, groupCol, groupItems(groupCol, aggs))
}

// groupEqPredicate renders the membership test for one discovered group
// value. CSV cannot distinguish NULL from the empty string, and the
// storage service sees empty fields as NULL, so the empty group value is
// matched with IS NULL.
func groupEqPredicate(groupCol, g string) string {
	if g == "" {
		return groupCol + " IS NULL"
	}
	return groupCol + " = " + sqlLiteral(g)
}

// caseItemsSQL builds the Listing-4 select list: one aggregated CASE per
// (group, aggregate) pair.
func caseItemsSQL(groupCol string, groups []string, aggs []GroupAgg) string {
	var items []string
	for _, g := range groups {
		pred := groupEqPredicate(groupCol, g)
		for _, a := range aggs {
			inner := a.Expr
			if a.Func == sqlparse.AggCount {
				inner = "1"
			}
			items = append(items, fmt.Sprintf(
				"SUM(CASE WHEN %s THEN %s ELSE 0 END)", pred, inner))
		}
	}
	return strings.Join(items, ", ")
}

// caseAggregate runs the Listing-4 query for the given groups and returns
// one relation row per group.
func (e *Exec) caseAggregate(phaseName string, stage int, table, groupCol string, groups []string, aggs []GroupAgg, filter string) (*Relation, error) {
	sql := "SELECT " + caseItemsSQL(groupCol, groups, aggs) + " FROM S3Object"
	if filter != "" {
		sql += " WHERE " + filter
	}
	if len(sql) > selectengine.MaxSQLBytes {
		return nil, fmt.Errorf("engine: S3-side group-by query for %d groups exceeds the %d-byte expression limit",
			len(groups), selectengine.MaxSQLBytes)
	}
	merge := make([]sqlparse.AggFunc, len(groups)*len(aggs))
	for i := range merge {
		merge[i] = sqlparse.AggSum
	}
	row, err := e.SelectAgg(phaseName, stage, table, sql, merge)
	if err != nil {
		return nil, err
	}
	out := &Relation{Cols: groupResultCols(groupCol, aggs)}
	for gi, g := range groups {
		r := make(Row, 0, 1+len(aggs))
		r = append(r, value.FromCSV(g))
		for ai := range aggs {
			r = append(r, row[gi*len(aggs)+ai])
		}
		out.Rows = append(out.Rows, r)
	}
	return out, nil
}

// s3GroupValues runs phase 1 of the S3-side algorithm: project the group
// column, dedup on the server, and return the distinct values in first-seen
// order.
func (e *Exec) s3GroupValues(phaseName string, stage int, table, groupCol, filter string) ([]string, error) {
	sql := "SELECT " + groupCol + " FROM S3Object"
	if filter != "" {
		sql += " WHERE " + filter
	}
	rel, err := e.SelectRows(phaseName, stage, table, sql)
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	var out []string
	for _, r := range rel.Rows {
		s := r[0].String()
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out, nil
}

// S3SideGroupBy pushes the entire group-by to S3 (Section VI-A): phase 1
// discovers the distinct groups with a projection; phase 2 runs one
// SUM(CASE ...) per (group, aggregate) pair and merges partition results.
// Only SUM and COUNT aggregates are supported, as in the paper.
func (e *Exec) S3SideGroupBy(table, groupCol string, aggs []GroupAgg, filter string) (*Relation, error) {
	if err := checkPushableAggs(aggs, "S3-side group-by"); err != nil {
		return nil, err
	}
	stage1 := e.NextStage()
	groups, err := e.s3GroupValues("discover groups", stage1, table, groupCol, filter)
	if err != nil {
		return nil, err
	}
	if len(groups) == 0 {
		return &Relation{Cols: groupResultCols(groupCol, aggs)}, nil
	}
	stage2 := e.NextStage()
	return e.caseAggregate("s3 aggregate", stage2, table, groupCol, groups, aggs, filter)
}

// HybridGroupByOptions tunes Section VI-B.
type HybridGroupByOptions struct {
	// SampleFraction of each partition scanned in phase 1 (default 0.01,
	// the paper's "first 1% of data").
	SampleFraction float64
	// S3Groups is how many of the largest groups are aggregated in S3
	// (Fig. 6 finds 6-8 optimal; default 8).
	S3Groups int
	// UsePartialGroupBy pushes phase 2's large-group aggregation as a
	// real GROUP BY (Suggestion 4) instead of the CASE encoding. Requires
	// the DB capabilities to allow GROUP BY.
	UsePartialGroupBy bool
}

func (o HybridGroupByOptions) withDefaults() HybridGroupByOptions {
	if o.SampleFraction <= 0 {
		o.SampleFraction = 0.01
	}
	if o.S3Groups <= 0 {
		o.S3Groups = 8
	}
	return o
}

// HybridGroupBy implements Section VI-B: sample the head of each partition
// to find the populous groups, aggregate those in S3, and aggregate the
// long tail on the server. Only SUM/COUNT aggregates can be pushed.
func (e *Exec) HybridGroupBy(table, groupCol string, aggs []GroupAgg, opts HybridGroupByOptions) (*Relation, error) {
	opts = opts.withDefaults()
	if err := checkPushableAggs(aggs, "hybrid group-by"); err != nil {
		return nil, err
	}
	defer e.scope("hybrid groupby " + table).end(nil)

	big, err := e.sampleTopGroups(table, groupCol, opts)
	if err != nil {
		return nil, err
	}

	// Phase 2: Q1 aggregates the big groups in S3; Q2 returns the tail
	// rows for local aggregation. Both run concurrently (same stage).
	stage2 := e.NextStage()
	var (
		bigRel  *Relation
		tailRel *Relation
	)
	err = concurrently(
		func() (err error) {
			switch {
			case len(big) == 0:
				bigRel = &Relation{Cols: groupResultCols(groupCol, aggs)}
			case opts.UsePartialGroupBy:
				bigRel, err = e.partialGroupBy("s3 big groups", stage2, table, groupCol, big, aggs)
			default:
				bigRel, err = e.caseAggregate("s3 big groups", stage2, table, groupCol, big, aggs, "")
			}
			return err
		},
		func() (err error) {
			where := ""
			if pred := tailPredicate(groupCol, big); pred != "" {
				where = " WHERE " + pred
			}
			cols := projectColsForAggs(groupCol, aggs)
			tailRel, err = e.selectMetered("tail scan", stage2, table,
				"SELECT "+strings.Join(cols, ", ")+" FROM S3Object"+where, 1)
			return err
		})
	if err != nil {
		return nil, err
	}

	tail, err := e.groupLocal(tailRel, groupCol, groupItems(groupCol, aggs))
	if err != nil {
		return nil, err
	}

	out := &Relation{Cols: groupResultCols(groupCol, aggs)}
	out.Rows = append(out.Rows, bigRel.Rows...)
	out.Rows = append(out.Rows, tail.Rows...)
	return out, nil
}

// sampleTopGroups is phase 1 of hybrid group-by: scan the first
// SampleFraction of each partition and rank groups by sampled frequency.
func (e *Exec) sampleTopGroups(table, groupCol string, opts HybridGroupByOptions) (_ []string, err error) {
	stage1 := e.NextStage()
	keys, err := e.parts(table)
	if err != nil {
		return nil, err
	}
	backend := e.db.backendFor(table)
	req := e.db.request(table, "SELECT "+groupCol+" FROM S3Object").Compiled()
	st := e.step("sample "+table, "sample", stage1, table)
	defer func() { st.end(err) }()
	counts := map[string]int64{}
	var mu sync.Mutex
	err = e.forEachPart(keys, func(ctx context.Context, i int, key string) error {
		size, err := backend.Size(ctx, e.db.bucket, key)
		if err != nil {
			return err
		}
		end := int64(float64(size) * opts.SampleFraction)
		if end < 1 {
			end = 1
		}
		req := req // each partition's own range, one statement
		req.ScanRange = &selectengine.ScanRange{Start: 0, End: end}
		res, err := e.doSelect(ctx, st, table, key, req)
		if err != nil {
			return err
		}
		rows, err := res.Records()
		if err != nil {
			return err
		}
		mu.Lock()
		for _, r := range rows {
			counts[r[0]]++
		}
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}
	type gc struct {
		g string
		n int64
	}
	ranked := make([]gc, 0, len(counts))
	for g, n := range counts {
		ranked = append(ranked, gc{g, n})
	}
	sort.Slice(ranked, func(a, b int) bool {
		if ranked[a].n != ranked[b].n {
			return ranked[a].n > ranked[b].n
		}
		return ranked[a].g < ranked[b].g
	})
	big := make([]string, 0, opts.S3Groups)
	for i := 0; i < len(ranked) && i < opts.S3Groups; i++ {
		big = append(big, ranked[i].g)
	}
	return big, nil
}

// tailPredicate renders the hybrid tail scan's WHERE clause: every row
// whose group is not among the big (S3-aggregated) groups. NOT IN alone
// would also drop NULL-group rows (the comparison evaluates to NULL), so
// the predicate handles the NULL group explicitly on whichever side of
// the split it belongs to.
func tailPredicate(groupCol string, big []string) string {
	if len(big) == 0 {
		return ""
	}
	bigHasNull := false
	var lits []string
	for _, g := range big {
		if g == "" {
			bigHasNull = true
			continue
		}
		lits = append(lits, sqlLiteral(g))
	}
	notIn := groupCol + " NOT IN (" + strings.Join(lits, ", ") + ")"
	switch {
	case len(lits) == 0: // big is just the NULL group
		return groupCol + " IS NOT NULL"
	case bigHasNull:
		return groupCol + " IS NOT NULL AND " + notIn
	default:
		return groupCol + " IS NULL OR " + notIn
	}
}

// partialGroupBy is the Suggestion-4 path: ship a real GROUP BY restricted
// to the given groups, then merge the per-partition partial results.
func (e *Exec) partialGroupBy(phaseName string, stage int, table, groupCol string, groups []string, aggs []GroupAgg) (*Relation, error) {
	groupsHaveNull := false
	var lits []string
	for _, g := range groups {
		if g == "" {
			groupsHaveNull = true
			continue
		}
		lits = append(lits, sqlLiteral(g))
	}
	pred := groupCol + " IN (" + strings.Join(lits, ", ") + ")"
	switch {
	case len(lits) == 0:
		pred = groupCol + " IS NULL"
	case groupsHaveNull:
		pred = groupCol + " IS NULL OR " + pred
	}
	sql := "SELECT " + groupItems(groupCol, aggs) + " FROM S3Object WHERE " +
		pred + " GROUP BY " + groupCol
	partials, err := e.SelectRows(phaseName, stage, table, sql)
	if err != nil {
		return nil, err
	}
	// Merge partition partials: SUM/COUNT partials both merge by SUM.
	mergeParts := []string{groupCol}
	for _, a := range aggs {
		mergeParts = append(mergeParts, "SUM("+a.As+") AS "+a.As)
	}
	return e.groupLocal(partials, groupCol, strings.Join(mergeParts, ", "))
}

func projectColsForAggs(groupCol string, aggs []GroupAgg) []string {
	cols := []string{groupCol}
	seen := map[string]bool{sqlparse.NameKey(groupCol): true}
	for _, a := range aggs {
		if a.Expr == "" {
			continue
		}
		ex, err := sqlparse.ParseExpr(a.Expr)
		if err != nil {
			continue
		}
		for _, c := range sqlparse.Columns(ex) {
			if k := sqlparse.NameKey(c); !seen[k] {
				seen[k] = true
				cols = append(cols, c)
			}
		}
	}
	return cols
}
