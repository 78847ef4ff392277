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

// groupQuery is a hand group-by's statement, checked and taken apart once at
// its door (groupStatement).
type groupQuery struct {
	table  string
	key    sqlparse.Expr         // the one GROUP BY key
	items  []sqlparse.SelectItem // the key, then each SUM or COUNT(*): the local group-by's select list
	cols   []string              // the output's columns: the key's name, then the aggregates'
	filter sqlparse.Expr
}

// groupStatement checks sql — SELECT key, SUM(x) [AS a], COUNT(*) [AS n], ...
// FROM t [WHERE p] GROUP BY key, WHERE only when where is set — for the
// group-by algorithm algo, which pushes SUM and COUNT(*): the aggregates that
// distribute over the CASE encoding both algorithms push.
func (db *DB) groupStatement(sql, algo string, where bool) (*groupQuery, error) {
	sel, err := db.handStatement(sql, algo, 1, 1)
	if err != nil {
		return nil, err
	}
	key := sqlparse.StripQualifiers(sel.GroupBy[0])
	q := &groupQuery{table: sel.Table, key: key, items: []sqlparse.SelectItem{{Expr: key}}, cols: []string{sel.Items[0].Name()}}
	why := "" // the last check failed says why
	for _, it := range sel.Items[1:] {
		a, ok := it.Expr.(*sqlparse.Aggregate)
		if !ok || a.String() != "COUNT(*)" && (a.Func != sqlparse.AggSum || a.X.String() == "*" || sqlparse.ContainsAggregate(a.X)) {
			why = fmt.Sprintf("only SUM(x) and COUNT(*) are pushed, not %s", it.Expr)
		}
		q.items = append(q.items, sqlparse.SelectItem{Expr: sqlparse.StripQualifiers(it.Expr), Alias: it.Alias})
		q.cols = append(q.cols, it.Name())
	}
	if sel.Where != nil && !where {
		why = "it takes no WHERE clause"
	}
	if len(sel.Items) < 2 || sel.Items[0].Expr.String() != sel.GroupBy[0].String() {
		why = "the select list is the GROUP BY key, then its aggregates"
	}
	if why != "" {
		return nil, forcedError(db, sel.Table, algo, why)
	}
	q.filter = sqlparse.StripQualifiers(sel.Where)
	return q, nil
}

// projection is the select list returning the columns the local group-by
// reads, the key's first.
func (q *groupQuery) projection() []sqlparse.SelectItem {
	var cols []string
	for _, it := range q.items {
		for _, c := range sqlparse.Columns(it.Expr) {
			cols = addColumn(cols, c)
		}
	}
	return columnItems(cols)
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
func (e *Exec) caseAggregate(phaseName string, stage int, q *groupQuery, groups []string, where sqlparse.Expr) (*Relation, error) {
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
	req := e.db.request(q.table, scanSelect(items, where))
	if len(req.SQL) > selectengine.MaxSQLBytes {
		return nil, fmt.Errorf("engine: S3-side group-by query for %d groups exceeds the %d-byte expression limit",
			len(groups), selectengine.MaxSQLBytes)
	}
	row, err := e.selectAgg(phaseName, stage, q.table, req)
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

// S3SideGroupBy runs sql, a groupStatement with or without WHERE, with the
// entire group-by pushed to S3 (Section VI-A): phase 1 discovers the distinct
// groups with a projection; phase 2 runs one SUM(CASE ...) per (group,
// aggregate) pair and merges partition results.
func (e *Exec) S3SideGroupBy(sql string) (*Relation, error) {
	q, err := e.db.groupStatement(sql, "s3-side group-by", true)
	if err != nil {
		return nil, err
	}
	// Phase 1: project the group key, dedup on the server, and keep the
	// distinct values in first-seen order.
	rel, err := e.selectMetered("discover groups", e.NextStage(), q.table,
		e.db.request(q.table, scanSelect(q.items[:1], q.filter)), 0)
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
	return e.caseAggregate("s3 aggregate", e.NextStage(), q, groups, q.filter)
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

// HybridGroupBy runs sql, a groupStatement without WHERE, as Section VI-B
// does: rank the groups by their frequency in the table's statistics sample,
// aggregate the most populous in S3, and aggregate the long tail on the
// server. A table without a usable statistics object has no populous groups:
// the tail is every row.
func (e *Exec) HybridGroupBy(sql string, opts HybridGroupByOptions) (*Relation, error) {
	if opts.S3Groups <= 0 {
		opts.S3Groups = 8
	}
	q, err := e.db.groupStatement(sql, "hybrid group-by", false)
	if err != nil {
		return nil, err
	}
	defer e.scope("hybrid groupby " + q.table).end(nil)

	big, err := e.sampleTopGroups(q, opts.S3Groups)
	if err != nil {
		return nil, err
	}

	// Phase 2: Q1 aggregates the big groups in S3; Q2 returns the tail
	// rows for local aggregation. Both run concurrently (same stage).
	stage2 := e.NextStage()
	var bigRel, tailRel *Relation
	var tailWhere sqlparse.Expr // every row when no group is big
	if len(big) > 0 {
		tailWhere = q.member(big, true)
	}
	err = concurrently(
		func() (err error) {
			switch {
			case len(big) == 0:
				bigRel = &Relation{Cols: q.cols}
			case opts.UsePartialGroupBy:
				bigRel, err = e.partialGroupBy("s3 big groups", stage2, q, big)
			default:
				bigRel, err = e.caseAggregate("s3 big groups", stage2, q, big, nil)
			}
			return err
		},
		func() (err error) {
			tailRel, err = e.selectMetered("tail scan", stage2, q.table,
				e.db.request(q.table, scanSelect(q.projection(), tailWhere)), 1)
			return err
		})
	if err != nil {
		return nil, err
	}

	tail, err := e.groupByLocal(tailRel, nil, []sqlparse.Expr{q.key}, q.items)
	if err != nil {
		return nil, err
	}

	return &Relation{Cols: q.cols, Rows: slices.Concat(bigRel.Rows, tail.Rows)}, nil
}

// sampleTopGroups is phase 1 of hybrid group-by: the n most frequent groups
// of the table's statistics sample, read as the planner reads it
// (sampleSelect); none without a usable object.
func (e *Exec) sampleTopGroups(q *groupQuery, n int) ([]string, error) {
	stage1 := e.NextStage()
	ts := e.statsObject(q.table, stage1)
	if ts == nil {
		return nil, nil
	}
	rows, st, err := e.sampleSelect(ts, q.table, scanSelect(q.items[:1], nil), stage1)
	st.end(err)
	if err != nil {
		return nil, err
	}
	// A group is its typed rendering, as discovery and the server's group
	// table read it: 3 and 03 are one group.
	counts := map[string]int64{}
	for _, r := range rows {
		counts[value.FromCSV(r[0]).String()]++
	}
	// The most frequent first, ties in group order.
	ranked := make([]string, 0, len(counts))
	for g := range counts {
		ranked = append(ranked, g)
	}
	slices.SortFunc(ranked, func(a, b string) int { return cmp.Or(cmp.Compare(counts[b], counts[a]), strings.Compare(a, b)) })
	return ranked[:min(len(ranked), n)], nil
}

// member keeps the rows whose group is among groups, or with not set the
// rows whose group is not. The empty group value is the NULL group (see eq),
// and NOT IN alone would also drop NULL-group rows (the comparison evaluates
// to NULL), so the NULL group is matched explicitly on whichever side of the
// split it belongs to.
func (q *groupQuery) member(groups []string, not bool) sqlparse.Expr {
	var lits []sqlparse.Expr
	null := false
	for _, g := range groups {
		if g == "" {
			null = true
		} else {
			lits = append(lits, literal(g))
		}
	}
	in := &sqlparse.In{X: q.key, List: lits, Not: not}
	switch {
	case len(lits) == 0:
		return &sqlparse.IsNull{X: q.key, Not: not}
	case null && not:
		return &sqlparse.Binary{Op: sqlparse.OpAnd, L: &sqlparse.IsNull{X: q.key, Not: true}, R: in}
	case null != not:
		return &sqlparse.Binary{Op: sqlparse.OpOr, L: &sqlparse.IsNull{X: q.key}, R: in}
	}
	return in
}

// partialGroupBy is the Suggestion-4 path: ship a real GROUP BY restricted
// to the given groups, then merge the per-partition partial results.
func (e *Exec) partialGroupBy(phaseName string, stage int, q *groupQuery, groups []string) (*Relation, error) {
	stmt := scanSelect(q.items, q.member(groups, false))
	stmt.GroupBy = []sqlparse.Expr{q.key}
	partials, err := e.selectMetered(phaseName, stage, q.table, e.db.request(q.table, stmt), 0)
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
