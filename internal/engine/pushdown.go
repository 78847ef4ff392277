package engine

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"pushdowndb/internal/expr"
	"pushdowndb/internal/selectengine"
	"pushdowndb/internal/sqlparse"
	"pushdowndb/internal/value"
)

// Single-table pushdown beyond selection and projection (docs/ARCHITECTURE.md,
// "Single-table pushdown beyond selection"): the two tails storage can decide,
// planned from the table's statistics sample, priced by planAccess beside the
// plain filtered scan, and run behind a check that makes a wrong sample cost a
// second pass, never a wrong answer.

// What the filtered strategy pushes beyond selection + projection
// (AccessPlan.Pushed).
const (
	// PushedTopK is Section VII's threshold: ORDER BY ... LIMIT K scans behind
	// `key >= T`, T the K-th best key of the sample.
	PushedTopK = "topk-threshold"
	// PushedGroupBy is Section VI's S3-side group-by: COUNT/MIN/MAX per group
	// of the sample as one aggregate request per partition.
	PushedGroupBy = "s3-groupby"
)

// tailPush is a planned pushed tail.
type tailPush struct {
	req     selectengine.Request // the S3 Select request every partition is sent
	estRows int64                // rows expected over a top-K's threshold: the sample's, scaled to the table
	// The s3-groupby request returns, per key tuple of groups (the sample's,
	// as rendered cells in first-seen order; one empty tuple for a plain
	// aggregation), the group's row count and then aggs, the statement's
	// distinct aggregates other than COUNT(*); a keyed request ends in
	// COUNT(*) and the count of rows outside every group.
	groups [][]string
	aggs   []*sqlparse.Aggregate
}

// exactOnStorage reports an expression built from columns, literals,
// arithmetic and unary minus only: what evaluates to the same value over a
// storage-side cell — CSV text — as over the typed cell the server decodes
// (a string function would read "00501" where the server reads 501).
func exactOnStorage(e sqlparse.Expr) bool {
	ok := true
	sqlparse.Walk(e, func(n sqlparse.Expr) bool {
		switch t := n.(type) {
		case *sqlparse.Column, *sqlparse.Literal:
		case *sqlparse.Binary:
			ok = ok && t.Op >= sqlparse.OpAdd && t.Op <= sqlparse.OpMod
		case *sqlparse.Unary:
			ok = ok && t.Op == "-"
		default:
			ok = false
		}
		return ok
	})
	return ok
}

// pushableShape decides with no request — from the AST, and for a grouped
// statement from how the DB was opened — whether storage could decide sel's
// tail, and which way; why says what rules a grouped or top-K statement out.
// Statements with neither shape plan for free, as they always did.
func (db *DB) pushableShape(sel *sqlparse.Select) (kind, why string) {
	grouped := len(sel.GroupBy) > 0 || sel.HasAggregates()
	for _, o := range sel.OrderBy {
		grouped = grouped || sqlparse.ContainsAggregate(o.Expr)
	}
	switch {
	case grouped:
		if why = groupShape(sel); why == "" && db.scanShare.Batches() {
			// The price below knows one client. Under a sharing window the
			// plain scan batches and predicate-merges with every other
			// client's scan of the table and is billed 1/n of one pass; an
			// aggregate request joins no batch (scanshare.mergeable).
			why = "a scan-sharing window is open: the plain scan batches with other clients' scans, an aggregate request does not"
		}
		if why != "" {
			return "", why
		}
		return PushedGroupBy, ""
	case len(sel.OrderBy) == 0 || sel.Limit < 0:
		return "", ""
	case sel.Limit == 0:
		return "", "LIMIT 0 returns nothing"
	}
	if k1 := orderByOverInput(sel)[0].Expr; !exactOnStorage(k1) || len(sqlparse.Columns(k1)) == 0 {
		return "", fmt.Sprintf("ORDER BY key %s is more than columns and arithmetic: storage would evaluate it over CSV text", k1)
	}
	return PushedTopK, ""
}

// groupShape says why a grouped statement cannot run as an S3-side group-by
// ("" when it can): keys must be bare columns, aggregates COUNT, MIN or MAX —
// the ones whose per-partition merge is exact for every input, which a float
// SUM's is not — and whatever stands outside an aggregate may read only keys.
func groupShape(sel *sqlparse.Select) (why string) {
	keys := map[string]bool{}
	for _, g := range sel.GroupBy {
		c, ok := g.(*sqlparse.Column)
		if !ok {
			return fmt.Sprintf("GROUP BY key %s is not a bare column", g)
		}
		keys[sqlparse.NameKey(c.Name)] = true
	}
	if len(keys) > 0 && sel.Limit >= 0 && len(sel.OrderBy) == 0 {
		return "LIMIT without ORDER BY keeps the first groups in table order"
	}
	check := func(e sqlparse.Expr, aliases bool) {
		sqlparse.Walk(e, func(n sqlparse.Expr) bool {
			switch t := n.(type) {
			case *sqlparse.Aggregate:
				_, isStar := t.X.(*sqlparse.Star)
				if t.Func == sqlparse.AggSum || t.Func == sqlparse.AggAvg {
					why = fmt.Sprintf("%s: a float partial sum rounds once per partition; only COUNT, MIN and MAX merge exactly", t)
				} else if !isStar && !exactOnStorage(t.X) {
					why = fmt.Sprintf("%s aggregates more than columns and arithmetic: storage would evaluate it over CSV text", t)
				}
				return false
			case *sqlparse.Star:
				why = "* reads columns that are not GROUP BY keys"
			case *sqlparse.Column:
				if !keys[sqlparse.NameKey(t.Name)] && !(aliases && isAlias(sel, t.Name)) {
					why = fmt.Sprintf("%s is read outside an aggregate and is not a GROUP BY key", t)
				}
			}
			return why == ""
		})
	}
	for _, it := range sel.Items {
		check(it.Expr, false)
	}
	for _, o := range sel.OrderBy {
		check(o.Expr, true)
	}
	return why
}

// planTail turns the statement's keys, evaluated over the statistics sample,
// into the request that pushes its tail — ap.push, with the sample facts
// behind it — or says in ap.NotPushed why there is none. It returns the table
// rows WHERE is estimated to keep, -1 when the sample was not read (a plain
// COUNT has no key to look for and nothing to order).
func (e *Exec) planTail(sel *sqlparse.Select, kind string, ts *statsObj, stage int, ap *AccessPlan) (filtered int64) {
	// What is read off the sample: the keys, then everything else that has to
	// order the same on both sides of the wire — a top-K's every sort key
	// (its own first included), a group-by's MIN and MAX arguments.
	exprs, nkeys := slices.Clone(sel.GroupBy), len(sel.GroupBy)
	if kind == PushedTopK {
		for _, o := range orderByOverInput(sel) {
			exprs = append(exprs, o.Expr)
		}
	} else {
		for _, a := range pushedAggs(sel) {
			if a.Func != sqlparse.AggCount {
				exprs = append(exprs, a.X)
			}
		}
	}
	if len(exprs) == 0 {
		ap.push = e.db.groupPush(sel, [][]string{nil})
		return -1
	}
	if ts == nil {
		ap.NotPushed = "the table has no usable statistics object"
		return -1
	}
	// Their values in the sample rows WHERE keeps, by the rule sampleCounts
	// follows: the sample is a CSV object and the select engine the one
	// estimator.
	rows, st, err := e.sampleSelect(ts, sel.Table, keyProbe(sel, exprs, -1), stage)
	if err == nil {
		st.sp.SetInt("matched", int64(len(rows)))
	}
	st.end(err)
	if err != nil {
		ap.NotPushed = "the keys do not evaluate over the sample: " + err.Error()
		return -1
	}
	filtered = ts.scaled(int64(len(rows)))
	if kind == PushedTopK {
		if ap.NotPushed = e.db.topKThreshold(sel, exprs, rows, nil, ap); ap.push != nil {
			ap.push.estRows = ts.scaled(ap.push.estRows)
		}
		return filtered
	}
	if ap.NotPushed = oneClass(exprs, rows, nkeys); ap.NotPushed != "" {
		return filtered
	}
	if nkeys == 0 {
		ap.push = e.db.groupPush(sel, [][]string{nil})
		return filtered
	}

	// Distinct key tuples, each seen at least twice — a sample's singletons
	// predict groups it never met (Good–Turing), and a missed group costs a
	// wasted pass — and none with a value that reads as a number: comparison
	// coerces numeric-looking text, so zip = '00501' also matches a 501 cell.
	// Against any other literal, = is byte equality of the rendered cell,
	// which is what the server's group table keys on.
	seen := map[string]int{}
	var groups [][]string
	var counts []int
	for _, r := range rows {
		r = r[:nkeys]
		tuple := strings.Join(r, "\x00")
		g, ok := seen[tuple]
		if !ok {
			for i, c := range r {
				if _, numeric := value.CoerceNum(value.Str(c)); numeric {
					ap.NotPushed = fmt.Sprintf("key value %s = %q reads as a number: comparison would coerce it, and = must be byte equality", exprs[i], c)
					return filtered
				}
			}
			g = len(groups)
			seen[tuple], groups, counts = g, append(groups, r), append(counts, 0)
		}
		counts[g]++
	}
	if len(groups) == 0 {
		ap.NotPushed = "no sample row passes the filter"
		return filtered
	}
	ap.Sample = fmt.Sprintf("%d groups in the sample, the rarest %d times", len(groups), slices.Min(counts))
	if slices.Min(counts) < 2 {
		ap.NotPushed = fmt.Sprintf("group (%s) is in the sample once: groups it never met are likely",
			strings.Join(groups[slices.Index(counts, 1)], ", "))
		return filtered
	}
	push := e.db.groupPush(sel, groups)
	if len(push.req.SQL) > selectengine.MaxSQLBytes {
		ap.NotPushed = fmt.Sprintf("the request for %d groups is %d bytes, over the %d-byte expression limit",
			len(groups), len(push.req.SQL), selectengine.MaxSQLBytes)
		return filtered
	}
	ap.push = push
	return filtered
}

// keyProbe is the S3 Select statement that reads exprs off at most limit
// (-1: every) rows WHERE keeps.
func keyProbe(sel *sqlparse.Select, exprs []sqlparse.Expr, limit int64) *sqlparse.Select {
	probe := &sqlparse.Select{Table: "S3Object", Where: sel.Where, Limit: limit}
	for _, x := range exprs {
		probe.Items = append(probe.Items, sqlparse.SelectItem{Expr: x})
	}
	return probe
}

// topKThreshold is Section VII's threshold, planned from a sample: rows hold
// the sort keys (orderByOverInput) of sample rows WHERE keeps — the statistics
// object's, for the planner, or the table's first rows, for SamplingTopK.
// Every key must be of one class over rows and more, other such rows
// (oneClass); then topKPush reads the threshold off rows' first key. It
// says why there is none.
func (db *DB) topKThreshold(sel *sqlparse.Select, keys []sqlparse.Expr, rows, more [][]string, ap *AccessPlan) (why string) {
	if why = oneClass(keys, slices.Concat(rows, more), 0); why != "" {
		return why
	}
	return db.topKPush(sel, keys[0], rows, ap)
}

// oneClass names the first of exprs[from:] whose non-NULL sample cells —
// rows holds every expression's — are not all numbers, all dates, or all text
// that does not read as a number, and is "" when there is none. Within a
// class comparison is one total order on both sides of the wire; across them
// it is not an order at all (9 < 10 as numbers, 10 < 5x and 5x < 9 as text),
// and storage compares a CSV cell as text where the server compares the typed
// cell it decodes — so what a threshold keeps, what a stable sort makes of the
// survivors, and which cell is a partition's MIN would depend on the path.
func oneClass(exprs []sqlparse.Expr, rows [][]string, from int) (why string) {
	for col := from; col < len(exprs); col++ {
		class := value.KindNull
		for _, r := range rows {
			v := value.FromCSV(r[col])
			if v.IsNull() {
				continue
			}
			k := v.Kind()
			if k == value.KindFloat {
				k = value.KindInt
			}
			// " 5" is text to the loader, a number to a comparison.
			if _, numeric := value.CoerceNum(v); k == value.KindString && numeric || class != value.KindNull && k != class {
				return fmt.Sprintf("%s mixes numbers, dates and text in the sample: storage orders them as CSV text, the server as typed cells", exprs[col])
			}
			class = k
		}
	}
	return ""
}

// topKPush reads the threshold off the sample — rows holds the first sort key
// of every sample row WHERE keeps — into ap.push and ap.Sample, or says why
// it cannot. The K best must all be non-NULL and, if numeric, finite. The
// sample is a subset of the table, so at least K table rows pass `key >= T`;
// >= and <= are value.Compare, which is also the comparator of the server's
// stable sort and, over keys of one class (topKThreshold checks the sample's),
// one order on both sides, so every row of the answer comes back, ties at T
// included, in table order. estRows counts the sample rows that pass.
func (db *DB) topKPush(sel *sqlparse.Select, key sqlparse.Expr, rows [][]string, ap *AccessPlan) (why string) {
	if sel.Limit > int64(len(rows)) {
		return fmt.Sprintf("LIMIT %d is more than the %d sample rows the filter keeps", sel.Limit, len(rows))
	}
	desc := sel.OrderBy[0].Desc
	vals := make([]value.Value, len(rows))
	for i, r := range rows {
		vals[i] = value.FromCSV(r[0])
	}
	slices.SortFunc(vals, func(a, b value.Value) int {
		if desc {
			a, b = b, a
		}
		return value.Compare(a, b)
	})
	k := int(sel.Limit)
	for _, v := range vals[:k] {
		if f, numeric := v.Num(); v.IsNull() || (numeric && (math.IsNaN(f) || math.IsInf(f, 0))) {
			return fmt.Sprintf("%q is among the sample's %d best keys: no threshold to compare against", v.String(), k)
		}
	}
	t := &sqlparse.Literal{Val: vals[k-1]}
	pass := k
	for pass < len(vals) && value.Compare(vals[pass], t.Val) == 0 {
		pass++
	}
	var pred sqlparse.Expr = &sqlparse.Binary{Op: sqlparse.OpGe, L: key, R: t}
	if !desc { // NULL sorts first
		pred = &sqlparse.Binary{Op: sqlparse.OpOr,
			L: &sqlparse.Binary{Op: sqlparse.OpLe, L: key, R: t}, R: &sqlparse.IsNull{X: key}}
	}
	req := db.request(sel.Table, pushedScan(sel, pred))
	ap.push, ap.Sample = &tailPush{req: req, estRows: int64(pass)}, "threshold "+t.String()+" from the sample"
	return ""
}

// groupPush builds the one aggregate request of an S3-side group-by
// (Listing 4, grown a guard): per group g with predicate p_g,
// SUM(CASE WHEN p_g THEN 1 ELSE 0 END) — its row count n_g — and
// AGG(CASE WHEN p_g THEN x END) per distinct aggregate; then COUNT(*) and
// SUM(CASE WHEN p_1 OR ... OR p_G THEN 0 ELSE 1 END). Every item has a short
// alias: unaliased, the storage side names each column by its SQL text. A
// plain aggregation (one group, no keys) sends the aggregates as they are.
func (db *DB) groupPush(sel *sqlparse.Select, groups [][]string) *tailPush {
	push := &tailPush{groups: groups, aggs: pushedAggs(sel)}
	var items []sqlparse.SelectItem
	add := func(fn sqlparse.AggFunc, x sqlparse.Expr) {
		items = append(items, sqlparse.SelectItem{Expr: &sqlparse.Aggregate{Func: fn, X: x}, Alias: "a" + strconv.Itoa(len(items))})
	}
	when := func(p, then, els sqlparse.Expr) sqlparse.Expr {
		return &sqlparse.Case{Whens: []sqlparse.When{{Cond: p, Result: then}}, Else: els}
	}
	zero, one := &sqlparse.Literal{Val: value.Int(0)}, &sqlparse.Literal{Val: value.Int(1)}
	var preds []sqlparse.Expr
	for _, g := range groups {
		var conj []sqlparse.Expr
		for i, c := range g {
			col := &sqlparse.Column{Name: sel.GroupBy[i].(*sqlparse.Column).Name}
			if c == "" { // CSV cannot tell NULL from the empty string: storage reads both as NULL
				conj = append(conj, &sqlparse.IsNull{X: col})
			} else {
				conj = append(conj, &sqlparse.Binary{Op: sqlparse.OpEq, L: col, R: &sqlparse.Literal{Val: value.Str(c)}})
			}
		}
		p := sqlparse.AndAll(conj)
		if p == nil {
			add(sqlparse.AggCount, &sqlparse.Star{})
		} else {
			add(sqlparse.AggSum, when(p, one, zero))
			preds = append(preds, p)
		}
		for _, a := range push.aggs {
			x := a.X
			if p != nil {
				x = when(p, x, nil)
			}
			add(a.Func, x)
		}
	}
	if len(preds) > 0 {
		add(sqlparse.AggCount, &sqlparse.Star{})
		add(sqlparse.AggSum, when(orTree(preds), zero, one))
	}
	push.req = db.request(sel.Table, scanSelect(items, sel.Where))
	return push
}

// pushedAggs lists the statement's distinct aggregates, by their SQL text,
// other than COUNT(*): the ones a group's row count does not answer.
func pushedAggs(sel *sqlparse.Select) (aggs []*sqlparse.Aggregate) {
	exprs := sqlparse.ItemExprs(sel.Items)
	for _, o := range sel.OrderBy {
		exprs = append(exprs, o.Expr)
	}
	for _, a := range expr.CollectAggregates(exprs) {
		_, isStar := a.X.(*sqlparse.Star)
		if !isStar && !slices.ContainsFunc(aggs, func(b *sqlparse.Aggregate) bool { return b.String() == a.String() }) {
			aggs = append(aggs, a)
		}
	}
	return aggs
}

// orTree ORs the predicates as a balanced tree: a chain would nest one
// parenthesis per group when printed, past what the storage side parses.
func orTree(ps []sqlparse.Expr) sqlparse.Expr {
	if len(ps) == 1 {
		return ps[0]
	}
	return &sqlparse.Binary{Op: sqlparse.OpOr, L: orTree(ps[:len(ps)/2]), R: orTree(ps[len(ps)/2:])}
}

// aggIndex finds a among the request's distinct aggregates by its SQL text.
func (p *tailPush) aggIndex(a *sqlparse.Aggregate) int {
	return slices.IndexFunc(p.aggs, func(b *sqlparse.Aggregate) bool { return b.String() == a.String() })
}

// runTail executes the pushed tail the access plan chose. A nil relation
// means its check failed — ap.Fallback says how — and the statement is to be
// rerun on the plain filtered path.
func (e *Exec) runTail(sel *sqlparse.Select, ap *AccessPlan) (*Relation, error) {
	push := ap.push
	if ap.Pushed == PushedTopK {
		rel, err := e.selectMetered("threshold scan "+sel.Table, e.NextStage(), sel.Table, push.req, 0)
		if err != nil {
			return nil, err
		}
		if ap.ActualRows = int64(len(rel.Rows)); ap.ActualRows < sel.Limit {
			// The sample promised K rows: the object is stale in content.
			ap.Fallback = FallbackShortThreshold
			return nil, nil
		}
		return e.finishLocal(rel, sel)
	}
	row, err := e.selectAgg("s3 aggregate", e.NextStage(), sel.Table, push.req)
	if err != nil {
		return nil, err
	}
	parts, _ := e.parts(sel.Table) // listed by the request just made
	ap.ActualRows = int64(len(parts))
	num := func(v value.Value) int64 { n, _ := v.IntNum(); return n } // a SUM over no rows is NULL: zero
	keyed := len(sel.GroupBy) > 0
	partial := &Relation{}
	for _, g := range sel.GroupBy {
		partial.Cols = append(partial.Cols, g.(*sqlparse.Column).Name)
	}
	for i := 0; i <= len(push.aggs); i++ {
		partial.Cols = append(partial.Cols, partialCol(i-1))
	}
	var inGroups int64
	for gi, g := range push.groups {
		vals := row[gi*(1+len(push.aggs)) : (gi+1)*(1+len(push.aggs))]
		inGroups += num(vals[0])
		if keyed && num(vals[0]) == 0 {
			continue // in the sample, not in what this table holds now
		}
		r := make(Row, 0, len(partial.Cols))
		for _, c := range g {
			r = append(r, value.FromCSV(c))
		}
		partial.Rows = append(partial.Rows, append(r, vals...))
	}
	// Every filtered row fell in exactly one known group, or the answer is
	// not trusted: misses and overlaps are caught, not argued away.
	if keyed {
		if num(row[len(row)-1]) > 0 {
			ap.Fallback = FallbackGroupsMissed
		} else if inGroups != num(row[len(row)-2]) {
			ap.Fallback = FallbackGroupsOverlap
		}
		if ap.Fallback != "" {
			return nil, nil
		}
	}
	// Items, hidden sort keys, ORDER BY and LIMIT finish through the grouped
	// tail over one merged row per group, each aggregate reading its partial.
	tail := *sel
	tail.Items = make([]sqlparse.SelectItem, len(sel.Items))
	for i, it := range sel.Items {
		tail.Items[i] = sqlparse.SelectItem{Expr: push.overPartials(it.Expr), Alias: it.Name()}
	}
	tail.OrderBy = make([]sqlparse.OrderItem, len(sel.OrderBy))
	for i, o := range sel.OrderBy {
		tail.OrderBy[i] = sqlparse.OrderItem{Expr: push.overPartials(o.Expr), Desc: o.Desc}
	}
	return e.finishLocal(partial, &tail)
}

// partialCol names the merged-partials column of the request's i-th distinct
// aggregate, -1 being the group's row count. No table column is spelled so.
func partialCol(i int) string { return "agg#" + strconv.Itoa(i) }

// overPartials rewrites a statement expression for the grouped tail: every
// aggregate becomes the merge of its partial column (a COUNT merges by SUM).
func (p *tailPush) overPartials(e sqlparse.Expr) sqlparse.Expr {
	return sqlparse.Rewrite(e, func(n sqlparse.Expr) sqlparse.Expr {
		a, ok := n.(*sqlparse.Aggregate)
		if !ok {
			return n
		}
		fn := a.Func
		if fn == sqlparse.AggCount {
			fn = sqlparse.AggSum
		}
		return &sqlparse.Aggregate{Func: fn, X: &sqlparse.Column{Name: partialCol(p.aggIndex(a))}}
	})
}
