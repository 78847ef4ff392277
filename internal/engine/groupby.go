package engine

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"pushdowndb/internal/selectengine"
	"pushdowndb/internal/sqlparse"
	"pushdowndb/internal/value"
)

// Section VI: group-by algorithms. The server-side and filtered group-bys
// are a GROUP BY statement on the planner's baseline and filtered access
// paths (DB.QueryForced); the S3-side and hybrid algorithms below push
// aggregation itself, as the paper's Listings 4 and 5 do.

// GroupAgg is one aggregation of a group-by query: SUM or COUNT, the
// aggregates that distribute over the CASE encoding both algorithms push.
type GroupAgg struct {
	Func sqlparse.AggFunc
	// Expr is the aggregated expression over the table's columns
	// (ignored for COUNT, which counts rows).
	Expr string
	// As names the output column.
	As string
}

// groupQuery is a hand group-by's string arguments, parsed once at its door.
type groupQuery struct {
	key    sqlparse.Expr         // parsed as an expression, so a computed key groups as a column does
	items  []sqlparse.SelectItem // the key, then each aggregate AS its name: the local group-by's select list
	cols   []string              // the output's columns: the key as written, then the aggregates' names
	filter sqlparse.Expr
}

func parseGroupQuery(groupCol string, aggs []GroupAgg, filter string) (*groupQuery, error) {
	key, err := sqlparse.ParseExpr(groupCol)
	if err != nil {
		return nil, fmt.Errorf("engine: bad group-by: %w", err)
	}
	q := &groupQuery{key: key, items: []sqlparse.SelectItem{{Expr: key}}, cols: []string{groupCol}}
	for _, a := range aggs {
		var x sqlparse.Expr = &sqlparse.Star{} // COUNT counts rows
		if a.Func != sqlparse.AggCount {
			if x, err = sqlparse.ParseExpr(a.Expr); err != nil {
				return nil, fmt.Errorf("engine: bad aggregate %q: %w", a.Expr, err)
			}
		}
		q.items = append(q.items, sqlparse.SelectItem{Expr: &sqlparse.Aggregate{Func: a.Func, X: x}, Alias: a.As})
		q.cols = append(q.cols, a.As)
	}
	q.filter, err = parsePredicate(filter)
	return q, err
}

// projection is the select list returning what the local group-by reads:
// the key, then the columns the aggregates reference.
func (q *groupQuery) projection() []sqlparse.SelectItem {
	items := q.items[:1:1]
	seen := map[string]bool{}
	if c, ok := q.key.(*sqlparse.Column); ok {
		seen[sqlparse.NameKey(c.Name)] = true
	}
	for _, it := range q.items[1:] {
		for _, c := range sqlparse.Columns(it.Expr) {
			if k := sqlparse.NameKey(c); !seen[k] {
				seen[k] = true
				items = append(items, sqlparse.SelectItem{Expr: &sqlparse.Column{Name: c}})
			}
		}
	}
	return items
}

func (q *groupQuery) checkPushable(algo string) error {
	for _, it := range q.items[1:] {
		if f := it.Expr.(*sqlparse.Aggregate).Func; f != sqlparse.AggSum && f != sqlparse.AggCount {
			return fmt.Errorf("engine: %s supports only SUM/COUNT, got %s", algo, it)
		}
	}
	return nil
}

// eq is the membership test for one discovered group value. CSV cannot
// distinguish NULL from the empty string, and the storage service sees
// empty fields as NULL, so the empty group value is matched with IS NULL.
func (q *groupQuery) eq(g string) sqlparse.Expr {
	if g == "" {
		return &sqlparse.IsNull{X: q.key}
	}
	return &sqlparse.Binary{Op: sqlparse.OpEq, L: q.key, R: literal(g)}
}

// literal is a group value or a top-K threshold as the constant storage
// compares cells with: the number s is when s is that number's canonical
// rendering, the string s otherwise. Values that merely parse as numbers are
// not numbers here: "00501" would compare as 501 and match other text than
// the stored zip code, and "NaN", "Inf" and "0x1p2" are no SQL numbers. -0
// is the integer 0, as the parser reads the text -0.
func literal(s string) *sqlparse.Literal {
	if i, err := strconv.ParseInt(s, 10, 64); err == nil && (strconv.FormatInt(i, 10) == s || s == "-0") {
		return &sqlparse.Literal{Val: value.Int(i)}
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil &&
		!math.IsNaN(f) && !math.IsInf(f, 0) &&
		strconv.FormatFloat(f, 'f', -1, 64) == s {
		return &sqlparse.Literal{Val: value.Float(f)}
	}
	return &sqlparse.Literal{Val: value.Str(s)}
}

// sumCase is SUM(CASE WHEN p THEN x ELSE 0 END): x summed over the rows p
// keeps, a count of them for x = 1.
func sumCase(p, x sqlparse.Expr) sqlparse.Expr {
	return &sqlparse.Aggregate{Func: sqlparse.AggSum, X: &sqlparse.Case{
		Whens: []sqlparse.When{{Cond: p, Result: x}}, Else: &sqlparse.Literal{Val: value.Int(0)}}}
}

// caseAggregate runs the Listing-4 query for the given groups — one
// aggregated CASE per (group, aggregate) pair over the rows where keeps —
// and returns one relation row per group.
func (e *Exec) caseAggregate(phaseName string, stage int, table string, q *groupQuery, groups []string, where sqlparse.Expr) (*Relation, error) {
	var items []sqlparse.SelectItem
	for _, g := range groups {
		pred := q.eq(g)
		for _, it := range q.items[1:] {
			x := it.Expr.(*sqlparse.Aggregate).X
			if _, count := x.(*sqlparse.Star); count {
				x = &sqlparse.Literal{Val: value.Int(1)}
			}
			items = append(items, sqlparse.SelectItem{Expr: sumCase(pred, x)})
		}
	}
	req := e.db.request(table, scanSelect(items, where))
	if len(req.SQL) > selectengine.MaxSQLBytes {
		return nil, fmt.Errorf("engine: S3-side group-by query for %d groups exceeds the %d-byte expression limit",
			len(groups), selectengine.MaxSQLBytes)
	}
	merge := make([]sqlparse.AggFunc, len(items)) // all AggSum, the zero AggFunc
	row, err := e.selectAgg(phaseName, stage, table, req, merge)
	if err != nil {
		return nil, err
	}
	out := &Relation{Cols: q.cols}
	naggs := len(q.cols) - 1
	for gi, g := range groups {
		out.Rows = append(out.Rows, append(Row{value.FromCSV(g)}, row[gi*naggs:(gi+1)*naggs]...))
	}
	return out, nil
}

// S3SideGroupBy pushes the entire group-by to S3 (Section VI-A): phase 1
// discovers the distinct groups with a projection; phase 2 runs one
// SUM(CASE ...) per (group, aggregate) pair and merges partition results.
// Only SUM and COUNT aggregates are supported, as in the paper.
func (e *Exec) S3SideGroupBy(table, groupCol string, aggs []GroupAgg, filter string) (*Relation, error) {
	q, err := parseGroupQuery(groupCol, aggs, filter)
	if err != nil {
		return nil, err
	}
	if err := q.checkPushable("S3-side group-by"); err != nil {
		return nil, err
	}
	// Phase 1: project the group key, dedup on the server, and keep the
	// distinct values in first-seen order.
	rel, err := e.selectMetered("discover groups", e.NextStage(), table,
		e.db.request(table, scanSelect(q.items[:1], q.filter)), 0)
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	var groups []string
	for _, r := range rel.Rows {
		if g := r[0].String(); !seen[g] {
			seen[g] = true
			groups = append(groups, g)
		}
	}
	if len(groups) == 0 {
		return &Relation{Cols: q.cols}, nil
	}
	return e.caseAggregate("s3 aggregate", e.NextStage(), table, q, groups, q.filter)
}

// HybridGroupByOptions tunes Section VI-B.
type HybridGroupByOptions struct {
	// S3Groups is how many of the largest groups are aggregated in S3
	// (Fig. 6 finds 6-8 optimal; default 8).
	S3Groups int
	// UsePartialGroupBy pushes phase 2's large-group aggregation as a
	// real GROUP BY (Suggestion 4) instead of the CASE encoding. Requires
	// the DB capabilities to allow GROUP BY.
	UsePartialGroupBy bool
}

func (o HybridGroupByOptions) withDefaults() HybridGroupByOptions {
	if o.S3Groups <= 0 {
		o.S3Groups = 8
	}
	return o
}

// HybridGroupBy implements Section VI-B: rank the groups by their frequency
// in the table's statistics sample, aggregate the most populous in S3, and
// aggregate the long tail on the server. A table without a usable
// statistics object has no populous groups: the tail is every row. Only
// SUM/COUNT aggregates can be pushed.
func (e *Exec) HybridGroupBy(table, groupCol string, aggs []GroupAgg, opts HybridGroupByOptions) (*Relation, error) {
	opts = opts.withDefaults()
	q, err := parseGroupQuery(groupCol, aggs, "")
	if err != nil {
		return nil, err
	}
	if err := q.checkPushable("hybrid group-by"); err != nil {
		return nil, err
	}
	defer e.scope("hybrid groupby " + table).end(nil)

	big, err := e.sampleTopGroups(table, q, opts.S3Groups)
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
				bigRel = &Relation{Cols: q.cols}
			case opts.UsePartialGroupBy:
				bigRel, err = e.partialGroupBy("s3 big groups", stage2, table, q, big)
			default:
				bigRel, err = e.caseAggregate("s3 big groups", stage2, table, q, big, nil)
			}
			return err
		},
		func() (err error) {
			tailRel, err = e.selectMetered("tail scan", stage2, table,
				e.db.request(table, scanSelect(q.projection(), q.tailPredicate(big))), 1)
			return err
		})
	if err != nil {
		return nil, err
	}

	tail, err := e.groupByLocal(tailRel, nil, []sqlparse.Expr{q.key}, q.items)
	if err != nil {
		return nil, err
	}

	out := &Relation{Cols: q.cols}
	out.Rows = append(out.Rows, bigRel.Rows...)
	out.Rows = append(out.Rows, tail.Rows...)
	return out, nil
}

// sampleTopGroups is phase 1 of hybrid group-by: the n most frequent groups
// of the table's statistics sample, read as the planner reads it
// (sampleSelect); none without a usable object.
func (e *Exec) sampleTopGroups(table string, q *groupQuery, n int) ([]string, error) {
	stage1 := e.NextStage()
	ts := e.statsObject(table, stage1)
	if ts == nil {
		return nil, nil
	}
	rows, st, err := e.sampleSelect(ts, table, scanSelect(q.items[:1], nil), stage1)
	st.end(err)
	if err != nil {
		return nil, err
	}
	counts := map[string]int64{}
	for _, r := range rows {
		counts[r[0]]++
	}
	// The most frequent first, ties in group order.
	ranked := make([]string, 0, len(counts))
	for g := range counts {
		ranked = append(ranked, g)
	}
	slices.SortFunc(ranked, func(a, b string) int { return cmp.Or(cmp.Compare(counts[b], counts[a]), strings.Compare(a, b)) })
	return ranked[:min(len(ranked), n)], nil
}

// tailPredicate is the hybrid tail scan's WHERE clause: every row whose
// group is not among the big (S3-aggregated) groups; nil when there are
// none. NOT IN alone would also drop NULL-group rows (the comparison
// evaluates to NULL), so the predicate handles the NULL group explicitly on
// whichever side of the split it belongs to.
func (q *groupQuery) tailPredicate(big []string) sqlparse.Expr {
	if len(big) == 0 {
		return nil
	}
	lits, bigHasNull := q.literals(big)
	notIn := &sqlparse.In{X: q.key, List: lits, Not: true}
	switch {
	case len(lits) == 0: // big is just the NULL group
		return &sqlparse.IsNull{X: q.key, Not: true}
	case bigHasNull:
		return &sqlparse.Binary{Op: sqlparse.OpAnd, L: &sqlparse.IsNull{X: q.key, Not: true}, R: notIn}
	default:
		return &sqlparse.Binary{Op: sqlparse.OpOr, L: &sqlparse.IsNull{X: q.key}, R: notIn}
	}
}

// literals are the non-empty group values as literals; null reports an
// empty one, the NULL group.
func (q *groupQuery) literals(groups []string) (lits []sqlparse.Expr, null bool) {
	for _, g := range groups {
		if g == "" {
			null = true
			continue
		}
		lits = append(lits, literal(g))
	}
	return lits, null
}

// partialGroupBy is the Suggestion-4 path: ship a real GROUP BY restricted
// to the given groups, then merge the per-partition partial results.
func (e *Exec) partialGroupBy(phaseName string, stage int, table string, q *groupQuery, groups []string) (*Relation, error) {
	lits, groupsHaveNull := q.literals(groups)
	var pred sqlparse.Expr = &sqlparse.In{X: q.key, List: lits}
	switch {
	case len(lits) == 0:
		pred = &sqlparse.IsNull{X: q.key}
	case groupsHaveNull:
		pred = &sqlparse.Binary{Op: sqlparse.OpOr, L: &sqlparse.IsNull{X: q.key}, R: pred}
	}
	stmt := scanSelect(q.items, pred)
	stmt.GroupBy = []sqlparse.Expr{q.key}
	partials, err := e.selectMetered(phaseName, stage, table, e.db.request(table, stmt), 0)
	if err != nil {
		return nil, err
	}
	// Merge partition partials: SUM/COUNT partials both merge by SUM.
	items := q.items[:1:1]
	for _, c := range q.cols[1:] {
		items = append(items, sqlparse.SelectItem{Expr: &sqlparse.Aggregate{Func: sqlparse.AggSum, X: &sqlparse.Column{Name: c}}, Alias: c})
	}
	return e.groupByLocal(partials, nil, []sqlparse.Expr{q.key}, items)
}
