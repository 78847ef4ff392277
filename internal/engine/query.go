package engine

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"pushdowndb/internal/expr"
	"pushdowndb/internal/sqlparse"
	"pushdowndb/internal/value"
)

// QueryContext is PushdownDB's SQL front end. Single-table SELECTs (WHERE, GROUP
// BY, ORDER BY, LIMIT) push selection and projection into S3 Select and
// run the rest on the server, as in the paper's Section III "minimal
// optimizer". Multi-table SELECTs (JOIN ... ON, or comma joins with
// equality predicates in WHERE) go through the cost-based join planner
// (plan.go), which picks a Section-V join strategy per join. Either way the
// plan that ran is Exec.QueryPlan. Canceling ctx aborts the query's storage
// fan-outs promptly.
func (db *DB) QueryContext(ctx context.Context, sql string) (*Relation, *Exec, error) {
	return db.QueryForced(ctx, sql, "")
}

// QueryForced is QueryContext with a single-table SELECT's access decision
// forced to strategy — StrategyBaseline, StrategyFiltered (the plain pushed
// scan, its tail on the server) or StrategyIndexScan (through the live index
// the planner would consider) — unpriced and with no statistics request: the
// paper's figures compare strategies on one statement this way. The empty
// strategy leaves the decision to the planner (QueryContext). Any other
// strategy, a join, or an IndexScan with no index to run on is a
// KindBadRequest error, never a silent fallback.
func (db *DB) QueryForced(ctx context.Context, sql, strategy string) (rel *Relation, e *Exec, err error) {
	defer func() { db.fireQueryHook(ctx, sql, e, err) }()
	sel, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, nil, err
	}
	return db.runSelectStatement(ctx, sel, strategy)
}

// runSelectStatement plans and executes an already-parsed SELECT, its
// access decision forced to strategy unless that is empty. The Exec comes
// back whatever happened: a statement that failed, in planning or in
// execution, still bought the requests it made.
func (db *DB) runSelectStatement(ctx context.Context, sel *sqlparse.Select, strategy string) (*Relation, *Exec, error) {
	e := db.NewExecContext(ctx)
	sc := e.scope("select")
	p, err := e.planSelect(sel, strategy)
	var rel *Relation
	if err == nil {
		rel, err = e.runPlan(p)
	}
	if err == nil {
		sc.sp.SetInt("rows", int64(len(rel.Rows)))
	}
	sc.end(err)
	return rel, e, err
}

// planSelect plans sel into the one QueryPlan its execution, EXPLAIN and
// EXPLAIN ANALYZE read: the join planner's scans and steps, or one scan
// carrying the single-table access decision (planAccess, or forceAccess for
// a non-empty strategy), which is nil, at no request, when there is none to
// make.
func (e *Exec) planSelect(sel *sqlparse.Select, strategy string) (p *QueryPlan, err error) {
	switch {
	case len(sel.Joins) > 0 && strategy != "":
		err = forcedError(e.db, sel.Table, strategy, "a join's strategies are chosen per join step")
	case len(sel.Joins) > 0:
		p, err = e.planJoins(sel)
	default:
		sc := &TableScan{Table: sel.Table, Alias: sel.Alias, req: e.db.request(sel.Table, pushedScan(sel, nil))}
		p = &QueryPlan{Sel: sel, Scans: []*TableScan{sc}}
		if strategy == "" {
			sc.Access, err = e.planAccess(sel, sc)
		} else {
			sc.Access, err = e.forceAccess(sel, sc, strategy)
		}
	}
	if err != nil {
		return nil, err
	}
	p.exec, e.plan = e, p
	return p, nil
}

// bindStatement binds what sel's single-table execution reads of the table
// to its header cols, as storage and the server's tail will, so a column the
// table lacks is refused before any scan. An ORDER BY over the rows reads
// what its aliases stand for; over grouped rows, its hidden items.
func bindStatement(sel *sqlparse.Select, cols []string) error {
	items, orderBy := sel.Items, orderByOverInput(sel)
	if len(sel.GroupBy) > 0 || sel.HasAggregates() {
		items, _, _ = groupSortPlan(sel)
		orderBy = nil
	}
	exprs := append(append(sqlparse.ItemExprs(items), sel.Where), sel.GroupBy...)
	for _, o := range orderBy {
		exprs = append(exprs, o.Expr)
	}
	var ev expr.Evaluator
	return ev.Bind(expr.Index(cols), exprs...)
}

// ExecStatement parses sql and runs it (RunStatement). SELECTs execute
// exactly as QueryContext does; EXPLAIN [ANALYZE] renders the plan as a
// one-column relation; CREATE INDEX and DROP INDEX run the catalog
// operation against the table's storage backend and return a nil relation
// and execution (index maintenance is dataset preparation, not a metered
// query).
func (db *DB) ExecStatement(ctx context.Context, sql string) (*Relation, *Exec, error) {
	st, err := sqlparse.ParseStatement(sql)
	if err != nil {
		db.fireQueryHook(ctx, sql, nil, err)
		return nil, nil, err
	}
	return db.RunStatement(ctx, sql, st)
}

// RunStatement runs st, which sql parses to, for a caller that parsed it
// already (pushdownd, before admission). The query hook receives sql.
func (db *DB) RunStatement(ctx context.Context, sql string, st sqlparse.Statement) (rel *Relation, e *Exec, err error) {
	defer func() { db.fireQueryHook(ctx, sql, e, err) }()
	switch t := st.(type) {
	case *sqlparse.Select:
		return db.runSelectStatement(ctx, t, "")
	case *sqlparse.Explain:
		return db.runExplain(ctx, t)
	case *sqlparse.CreateIndex:
		return nil, nil, db.CreateNamedIndex(ctx, t.Name, t.Table, t.Column)
	case *sqlparse.DropIndex:
		if t.Name != "" {
			return nil, nil, db.DropNamedIndex(ctx, t.Table, t.Name)
		}
		return nil, nil, db.DropIndex(ctx, t.Table, t.Column)
	default:
		return nil, nil, fmt.Errorf("engine: unsupported statement %T", st)
	}
}

// runSelect executes a single-table SELECT as its scan's access decision
// says.
func (e *Exec) runSelect(sel *sqlparse.Select, sc *TableScan) (*Relation, error) {
	table := sel.Table
	rk := newRank(sel) // a top-K's scan answers only its K best rows
	if ap := sc.Access; ap != nil {
		switch {
		case ap.Strategy == StrategyIndexScan:
			// Fetch the candidates, the full WHERE re-applied as they decode.
			rel, gets, _, err := e.indexFetch(table, sc.Index, nil, fetchCoalesced, &decoder{where: sc.Filter, rank: rk})
			if ap.RangedGets = gets; err != nil {
				return nil, err
			}
			return e.finishTail(sel, rel, nil, rk)
		case ap.Strategy == StrategyBaseline:
			var bind func([]string) error
			if sc.Cols == nil {
				// Forced: no header was read to bind to, so the first
				// partition's is, before the other partitions are fetched.
				bind = func(header []string) error { return bindStatement(sel, header) }
			}
			// The load types what the statement reads (every column for a
			// *), and a grouped tail's rows fold into its block as they
			// decode.
			l := Load{Table: table, Where: sc.Filter, rank: rk}
			if refs, star := serverColumns(sel, []sqlparse.Expr{sc.Filter}, nil); !star {
				l.Cols = baselineCols(nil, refs)
			}
			if grouped(sel) {
				l.GroupBy = sel.GroupBy
				l.Items, _, _ = groupSortPlan(sel)
			}
			rel, fold, err := e.serverSideFilter(l, bind)
			if err != nil {
				return nil, err
			}
			return e.finishTail(sel, rel, fold, rk)
		case ap.Pushed != "":
			if rel, err := e.runTail(sel, ap, rk); rel != nil || err != nil {
				return rel, err
			}
			// The pushed tail's check failed: the right answer is one plain
			// filtered pass away.
			e.parent().SetStr("pushdown_fallback", ap.Fallback)
		}
	}

	// A grouped tail folds the scan's responses into its aggregation block
	// as they arrive and never sees a relation.
	var fold *groupFold
	if grouped(sel) {
		pushed, err := sc.req.Statement()
		if err == nil {
			items, _, _ := groupSortPlan(sel)
			fold, err = newGroupFold(pushed, sel.GroupBy, items)
		}
		if err != nil {
			return nil, err
		}
	}
	scan := e.step("scan "+table, "scan "+table, e.NextStage(), table)
	rel, err := e.selectDecoded(scan, table, sc.req, &decoder{fold: fold, rank: rk})
	scan.end(err)
	if err != nil {
		return nil, err
	}
	if isSimple(sel) {
		// Fully pushable: selection, projection and LIMIT all went to S3.
		if sel.Limit >= 0 {
			rel = LimitLocal(rel, int(sel.Limit))
		}
		return rel, nil
	}
	return e.finishTail(sel, rel, fold, rk)
}

// pushedScan is the S3 Select request the pushed-scan path sends for a
// single-table query: the whole statement for fully pushable selects;
// otherwise the selection — WHERE with extra ANDed onto it (the top-K
// threshold; nil for none) — plus the projection of the columns the
// server-side tail reads. Explain, the access planner's estimates and
// result-cache residency check, and execution all read the one request
// built from it (TableScan's), so they can never disagree about what is sent
// or what the cache holds.
func pushedScan(sel *sqlparse.Select, extra sqlparse.Expr) *sqlparse.Select {
	pushed := &sqlparse.Select{Items: sel.Items, Table: "S3Object", Where: sel.Where, Limit: sel.Limit}
	if !isSimple(sel) {
		var cols []string
		over := sel
		if grouped(sel) {
			// A grouped tail binds to the columns it is sent before its scan,
			// so it is never sent *, whose columns only a response names: a *
			// item fails over any group, whatever columns it would expand to.
			over = &sqlparse.Select{Items: slices.DeleteFunc(slices.Clone(sel.Items), isStar), GroupBy: sel.GroupBy, OrderBy: sel.OrderBy}
		}
		refs, star := serverColumns(over, nil, nil)
		for _, c := range refs {
			cols = addColumn(cols, c.Name)
		}
		if star {
			// Every column once: the server-side projection expands the * and
			// evaluates the items beside it.
			pushed.Items = []sqlparse.SelectItem{{Expr: &sqlparse.Star{}}}
		} else if len(cols) > 0 {
			pushed.Items = columnItems(cols)
		} else {
			// The tail reads no column (COUNT(*)): one constant per row.
			pushed.Items = []sqlparse.SelectItem{{Expr: &sqlparse.Literal{Val: value.Int(1)}}}
		}
		pushed.Limit = -1
		if sel.Where == nil {
			pushed.Where = extra
		} else if extra != nil {
			pushed.Where = &sqlparse.Binary{Op: sqlparse.OpAnd, L: sel.Where, R: extra}
		}
	}
	return pushed
}

// isSimple reports a statement S3 Select runs whole: selection, projection
// and LIMIT, no tail for the server.
func isSimple(sel *sqlparse.Select) bool {
	return len(sel.OrderBy) == 0 && !grouped(sel)
}

// grouped reports a statement whose tail groups or aggregates.
func grouped(sel *sqlparse.Select) bool {
	return len(sel.GroupBy) > 0 || sel.HasAggregates()
}

// finishTail runs the server-side tail of sel — grouping, aggregation or
// projection, ordering and limiting, its row work accounted on the virtual
// clock — over rel, an already-scanned or joined relation, or, with a fold
// (nil: none), over the group table a grouped scan or join folded its rows
// into (groupByLocal): the one tail either input finishes through. With a
// rank (nil: none) rel holds only the K rows the scan ranked best, in order,
// and the tail's input is the rows the scan kept. A LIMIT K tail ranks K
// (TopKLocal), and projects only the rows it answers.
func (e *Exec) finishTail(sel *sqlparse.Select, rel *Relation, fold *groupFold, rk *rank) (*Relation, error) {
	var rowsIn int64 // the rows folded, ranked or given
	switch {
	case fold != nil:
		rowsIn = fold.rows
	case rk != nil:
		rowsIn = rk.rows
	default:
		rowsIn = int64(len(rel.Rows))
	}
	st := e.step("local", "local", e.NextStage(), "")
	st.sp.SetInt("rows_in", rowsIn)
	st.AddServerRows(rowsIn)
	defer e.enter(st.sp).end(nil)

	var err error
	orderBy := sel.OrderBy // the sort still owed once the switch is done
	hidden := 0
	switch {
	case len(sel.GroupBy) > 0 || sel.HasAggregates():
		// ORDER BY may reference group-by expressions the select list
		// drops; carry them through the grouping as hidden trailing items
		// and strip them after the sort.
		var items []sqlparse.SelectItem
		items, orderBy, hidden = groupSortPlan(sel)
		rel, err = e.groupByLocal(rel, fold, sel.GroupBy, items)
	default:
		// Sort before projecting: the projection may drop a column ORDER
		// BY references (serverColumns pushed it into the scan precisely so
		// it is available here). Aliases are rewritten to their underlying
		// expressions, which the pre-projection relation can evaluate; the
		// projection preserves row order.
		if len(orderBy) > 0 && rk == nil {
			rel, err = TopKLocal(rel, orderByOverInput(sel), int(sel.Limit))
			if err != nil {
				return nil, err
			}
		}
		orderBy = nil
		if sel.Limit >= 0 {
			rel = LimitLocal(rel, int(sel.Limit))
		}
		rel, err = e.projectLocal(rel, sel.Items)
	}
	if err != nil {
		return nil, err
	}
	if len(sel.GroupBy) > 0 || sel.HasAggregates() {
		st.sp.SetInt("groups", int64(len(rel.Rows)))
	}
	if len(orderBy) > 0 {
		rel, err = TopKLocal(rel, orderBy, int(sel.Limit))
		if err != nil {
			return nil, err
		}
	}
	if hidden > 0 {
		rel = dropTrailingCols(rel, hidden)
	}
	if sel.Limit >= 0 {
		rel = LimitLocal(rel, int(sel.Limit))
	}
	return rel, nil
}

// groupSortPlan prepares a grouped query's projection for its ORDER BY.
// Sort expressions the output relation can evaluate (references resolve
// to select-list output names, no aggregates) sort directly; everything
// else — typically a group-by column the select list drops — becomes a
// hidden trailing item evaluated by the grouping and stripped after the
// sort. Returns the augmented select items, the ORDER BY over the grouped
// output, and the hidden column count; a plain aggregation's are its own.
func groupSortPlan(sel *sqlparse.Select) (items []sqlparse.SelectItem, orderBy []sqlparse.OrderItem, hidden int) {
	if len(sel.GroupBy) == 0 {
		return sel.Items, sel.OrderBy, 0
	}
	outNames := map[string]bool{}
	for _, it := range sel.Items {
		outNames[sqlparse.NameKey(it.Name())] = true
	}
	items = append(items, sel.Items...)
	next := 0
	for _, o := range sel.OrderBy {
		direct := !sqlparse.ContainsAggregate(o.Expr)
		if direct {
			for _, c := range sqlparse.Columns(o.Expr) {
				if !outNames[sqlparse.NameKey(c)] {
					direct = false
					break
				}
			}
		}
		if !direct {
			var name string
			for ; ; next++ {
				name = fmt.Sprintf("sortkey_%d", next)
				if !outNames[name] {
					break
				}
			}
			outNames[name] = true
			items = append(items, sqlparse.SelectItem{Expr: o.Expr, Alias: name})
			hidden++
			o.Expr = &sqlparse.Column{Name: name}
		}
		orderBy = append(orderBy, o)
	}
	return items, orderBy, hidden
}

// dropTrailingCols strips the last n columns of rel (the hidden sort
// keys groupSortPlan appended).
func dropTrailingCols(rel *Relation, n int) *Relation {
	keep := len(rel.Cols) - n
	out := &Relation{Cols: rel.Cols[:keep], Rows: make([]Row, len(rel.Rows))}
	for i, r := range rel.Rows {
		out.Rows[i] = r[:keep]
	}
	return out
}

// orderByOverInput is sel's ORDER BY for evaluation over the
// pre-projection relation: column references that name select-list
// aliases — bare or nested inside larger expressions — are replaced by
// the aliased expressions.
func orderByOverInput(sel *sqlparse.Select) []sqlparse.OrderItem {
	subst := func(e sqlparse.Expr) sqlparse.Expr {
		c, ok := e.(*sqlparse.Column)
		if !ok || c.Qualifier != "" {
			return e
		}
		for _, it := range sel.Items {
			if it.Alias != "" && sqlparse.SameName(it.Alias, c.Name) {
				return it.Expr
			}
		}
		return e
	}
	orderBy := make([]sqlparse.OrderItem, len(sel.OrderBy))
	for i, o := range sel.OrderBy {
		orderBy[i] = sqlparse.OrderItem{Expr: sqlparse.Rewrite(o.Expr, subst), Desc: o.Desc}
	}
	return orderBy
}

// serverColumns returns the column references the server reads once the
// scans return: the select list, the conjuncts kept on the server (a
// conjunct pushed whole into a scan's WHERE reads its columns in storage),
// GROUP BY, and the ORDER BY references that name no select-list alias and
// that sortable accepts (nil accepts all). star reports a * in the select
// list, which reads every column.
func serverColumns(sel *sqlparse.Select, kept []sqlparse.Expr, sortable func(*sqlparse.Column) bool) (refs []*sqlparse.Column, star bool) {
	for _, it := range sel.Items {
		if isStar(it) {
			return nil, true
		}
		refs = append(refs, sqlparse.ColumnRefs(it.Expr)...)
	}
	for _, e := range slices.Concat(kept, sel.GroupBy) {
		refs = append(refs, sqlparse.ColumnRefs(e)...)
	}
	for _, o := range sel.OrderBy {
		for _, c := range sqlparse.ColumnRefs(o.Expr) {
			if !isAlias(sel, c.Name) && (sortable == nil || sortable(c)) {
				refs = append(refs, c)
			}
		}
	}
	return refs, false
}

// baselineCols is cols and the columns refs name, the columns a baseline
// load types — or nil, every column, for none or when one is positional
// (sqlparse.Positional): in the narrower header a load keeps, it would
// denote another column.
func baselineCols(cols []string, refs []*sqlparse.Column) []string {
	for _, c := range refs {
		cols = addColumn(cols, c.Name)
	}
	if slices.ContainsFunc(cols, sqlparse.Positional) {
		return nil
	}
	return cols
}

// addColumn appends name to cols unless cols already names that column.
func addColumn(cols []string, name string) []string {
	if slices.ContainsFunc(cols, func(c string) bool { return sqlparse.SameName(c, name) }) {
		return cols
	}
	return append(cols, name)
}

func isAlias(sel *sqlparse.Select, name string) bool {
	for _, it := range sel.Items {
		if sqlparse.SameName(it.Alias, name) {
			return true
		}
	}
	return false
}

// writeLocalTail describes the server-side tail finishTail will run for
// sel, one indented "server:" line per step (QueryPlan.String).
func writeLocalTail(b *strings.Builder, indent string, sel *sqlparse.Select) {
	if len(sel.GroupBy) > 0 {
		keys := make([]string, len(sel.GroupBy))
		for i, g := range sel.GroupBy {
			keys[i] = g.String()
		}
		fmt.Fprintf(b, "%sserver: GROUP BY %s\n", indent, strings.Join(keys, ", "))
	} else if sel.HasAggregates() {
		fmt.Fprintf(b, "%sserver: aggregate\n", indent)
	}
	if len(sel.OrderBy) > 0 {
		fmt.Fprintf(b, "%sserver: ORDER BY\n", indent)
	}
	if sel.Limit >= 0 {
		fmt.Fprintf(b, "%sserver: LIMIT %d\n", indent, sel.Limit)
	}
}
