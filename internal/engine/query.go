package engine

import (
	"context"
	"fmt"
	"strings"

	"pushdowndb/internal/sqlparse"
	"pushdowndb/internal/value"
	"pushdowndb/internal/vec"
)

// QueryContext is PushdownDB's SQL front end. Single-table SELECTs (WHERE, GROUP
// BY, ORDER BY, LIMIT) push selection and projection into S3 Select and
// run the rest on the server, as in the paper's Section III "minimal
// optimizer". Multi-table SELECTs (JOIN ... ON, or comma joins with
// equality predicates in WHERE) go through the cost-based join planner
// (plan.go), which picks a Section-V join strategy per join; the chosen
// plan is available from Exec.QueryPlan. Canceling ctx aborts the query's storage fan-outs promptly.
func (db *DB) QueryContext(ctx context.Context, sql string) (*Relation, *Exec, error) {
	sel, err := sqlparse.Parse(sql)
	if err != nil {
		db.fireQueryHook(ctx, sql, nil, err)
		return nil, nil, err
	}
	rel, e, err := db.runSelectStatement(ctx, sel)
	db.fireQueryHook(ctx, sql, e, err)
	return rel, e, err
}

// runSelectStatement executes an already-parsed SELECT.
func (db *DB) runSelectStatement(ctx context.Context, sel *sqlparse.Select) (*Relation, *Exec, error) {
	e := db.NewExecContext(ctx)
	sc := e.scope("select")
	var (
		rel *Relation
		err error
	)
	if len(sel.Joins) > 0 {
		var plan *QueryPlan
		plan, err = e.planJoins(sel)
		if err != nil {
			sc.end(err)
			return nil, nil, err
		}
		e.plan = plan
		rel, err = e.runPlan(plan)
	} else {
		rel, err = e.runSelect(sel)
	}
	if err == nil {
		sc.sp.SetInt("rows", int64(len(rel.Rows)))
	}
	sc.end(err)
	return rel, e, err
}

// ExecStatement runs any supported SQL statement. SELECTs execute exactly
// as QueryContext does; CREATE INDEX and DROP INDEX run the catalog
// operation against the table's storage backend and return a nil relation
// and execution (index maintenance is dataset preparation, not a metered
// query).
func (db *DB) ExecStatement(ctx context.Context, sql string) (*Relation, *Exec, error) {
	rel, e, err := db.execStatement(ctx, sql)
	db.fireQueryHook(ctx, sql, e, err)
	return rel, e, err
}

func (db *DB) execStatement(ctx context.Context, sql string) (*Relation, *Exec, error) {
	st, err := sqlparse.ParseStatement(sql)
	if err != nil {
		return nil, nil, err
	}
	switch t := st.(type) {
	case *sqlparse.Select:
		return db.runSelectStatement(ctx, t)
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

// PlanContext parses sql and builds its execution plan without running it. For
// join queries the returned Exec has already accrued the planning cost
// (header and statistics probes); single-table queries plan for free and
// return a nil QueryPlan (they bypass the join planner). The planner's header and statistics probes run under ctx.
func (db *DB) PlanContext(ctx context.Context, sql string) (*QueryPlan, *Exec, error) {
	sel, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, nil, err
	}
	return db.planParsed(ctx, sel)
}

func (db *DB) planParsed(ctx context.Context, sel *sqlparse.Select) (*QueryPlan, *Exec, error) {
	e := db.NewExecContext(ctx)
	if len(sel.Joins) == 0 {
		return nil, e, nil
	}
	plan, err := e.planJoins(sel)
	if err != nil {
		return nil, nil, err
	}
	e.plan = plan
	return plan, e, nil
}

func (e *Exec) runSelect(sel *sqlparse.Select) (*Relation, error) {
	table := sel.Table
	// The access decision (planAccess): statements with none to make — no
	// usable index, no tail storage could decide — skip it entirely.
	ap, err := e.planAccess(sel)
	if err != nil {
		return nil, err
	}
	if ap != nil {
		e.access = ap
		switch {
		case ap.Strategy == StrategyIndexScan:
			return e.runIndexScanSelect(sel, ap)
		case ap.Strategy == StrategyBaseline:
			rel, err := e.serverSideFilter(table, sqlparse.StripQualifiers(sel.Where), nil)
			if err != nil {
				return nil, err
			}
			return e.finishLocal(rel, sel)
		case ap.Pushed != "":
			if rel, err := e.runTail(sel, ap); rel != nil || err != nil {
				return rel, err
			}
			// The pushed tail's check failed: the right answer is one plain
			// filtered pass away.
			e.parent().SetStr("pushdown_fallback", ap.Fallback)
		}
	}

	// A grouped tail folds the scan's responses as typed vectors and never
	// sees a row.
	grouped := e.db.vectorized && (len(sel.GroupBy) > 0 || sel.HasAggregates())
	scan := e.step("scan "+table, "scan "+table, e.NextStage(), table)
	rel, batches, err := e.selectDecoded(scan, table, pushedScan(sel, nil).String(), grouped)
	scan.end(err)
	if err != nil {
		return nil, err
	}
	if grouped {
		return e.finishTail(sel, rel, batches)
	}
	if isSimple(sel) {
		// Fully pushable: selection, projection and LIMIT all went to S3.
		if sel.Limit >= 0 {
			rel = LimitLocal(rel, int(sel.Limit))
		}
		return rel, nil
	}
	return e.finishLocal(rel, sel)
}

// pushedScan is the S3 Select request the pushed-scan path sends for a
// single-table query: the whole statement for fully pushable selects;
// otherwise the selection — WHERE with extra ANDed onto it (the top-K
// threshold; nil for none) — plus the projection of the columns the
// server-side tail reads. Explain, the access planner's estimates and
// result-cache residency check, and execution all use this one rendering, so
// they can never disagree about what is sent or what the cache holds.
func pushedScan(sel *sqlparse.Select, extra sqlparse.Expr) *sqlparse.Select {
	pushed := &sqlparse.Select{Items: sel.Items, Table: "S3Object", Where: sel.Where, Limit: sel.Limit}
	if !isSimple(sel) {
		if cols, star := queryColumns(sel); star {
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
	return len(sel.GroupBy) == 0 && len(sel.OrderBy) == 0 && !sel.HasAggregates()
}

// finishLocal runs the server-side tail of a query over an already-scanned
// (or joined) relation: grouping/aggregation/projection, ordering and
// limiting, with the row work accounted on the virtual clock.
func (e *Exec) finishLocal(rel *Relation, sel *sqlparse.Select) (*Relation, error) {
	return e.finishTail(sel, rel, nil)
}

// finishTail is finishLocal whose grouping step reads rel or, with rel nil,
// the typed batches of a grouped scan (groupByLocal): the one tail either
// input finishes through.
func (e *Exec) finishTail(sel *sqlparse.Select, rel *Relation, batches []*vec.Batch) (*Relation, error) {
	rowsIn := int64(inputRows(rel, batches))
	st := e.step("local", "local", e.NextStage(), "")
	st.sp.SetInt("rows_in", rowsIn)
	st.AddServerRows(rowsIn)
	defer e.enter(st.sp).end(nil)

	var err error
	orderBy := sel.OrderBy // the sort still owed once the switch is done
	hidden := 0
	switch {
	case len(sel.GroupBy) > 0:
		// ORDER BY may reference group-by expressions the select list
		// drops; carry them through the grouping as hidden trailing items
		// and strip them after the sort.
		var items []sqlparse.SelectItem
		items, orderBy, hidden = groupSortPlan(sel)
		rel, err = e.groupByLocal(rel, batches, sel.GroupBy, items)
	case sel.HasAggregates():
		rel, err = e.groupByLocal(rel, batches, nil, sel.Items)
	default:
		// Sort before projecting: the projection may drop a column ORDER
		// BY references (queryColumns pushed it into the scan precisely so
		// it is available here). Aliases are rewritten to their underlying
		// expressions, which the pre-projection relation can evaluate; the
		// projection preserves row order.
		if len(orderBy) > 0 {
			rel, err = sortLocal(rel, orderByOverInput(sel))
			if err != nil {
				return nil, err
			}
			orderBy = nil
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
		rel, err = sortLocal(rel, orderBy)
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
// output, and the hidden column count.
func groupSortPlan(sel *sqlparse.Select) (items []sqlparse.SelectItem, orderBy []sqlparse.OrderItem, hidden int) {
	outNames := map[string]bool{}
	for _, it := range sel.Items {
		outNames[strings.ToLower(it.Name())] = true
	}
	items = append(items, sel.Items...)
	next := 0
	for _, o := range sel.OrderBy {
		direct := !sqlparse.ContainsAggregate(o.Expr)
		if direct {
			for _, c := range sqlparse.Columns(o.Expr) {
				if !outNames[strings.ToLower(c)] {
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
			if it.Alias != "" && strings.EqualFold(it.Alias, c.Name) {
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

// queryColumns collects the columns the server-side tail of the query reads
// — everything referenced outside WHERE, which is pushed whole — for
// projection pushdown; star reports a * in the select list (every column).
func queryColumns(sel *sqlparse.Select) (cols []string, star bool) {
	seen := map[string]bool{}
	add := func(names []string) {
		for _, n := range names {
			key := strings.ToLower(n)
			if !seen[key] {
				seen[key] = true
				cols = append(cols, n)
			}
		}
	}
	for _, it := range sel.Items {
		if _, isStar := it.Expr.(*sqlparse.Star); isStar {
			return nil, true
		}
		add(sqlparse.Columns(it.Expr))
	}
	for _, g := range sel.GroupBy {
		add(sqlparse.Columns(g))
	}
	for _, o := range sel.OrderBy {
		// ORDER BY may reference output aliases, which are not table
		// columns; only push genuine table columns that parse as such.
		for _, c := range sqlparse.Columns(o.Expr) {
			if isAlias(sel, c) {
				continue
			}
			add([]string{c})
		}
	}
	return cols, false
}

func isAlias(sel *sqlparse.Select, name string) bool {
	for _, it := range sel.Items {
		if strings.EqualFold(it.Alias, name) {
			return true
		}
	}
	return false
}

// ExplainContext returns a description of how QueryContext would execute sql: the plan
// tree with per-join strategy decisions for multi-table queries, or the
// pushdown split for single-table ones. Planning a join query issues the
// planner's (cheap) header and statistics probes. The planner's probes and the cached-scan residency check honor ctx, so a
// caller's deadline (e.g. the server's per-request timeout) cuts a stalled
// backend listing instead of hanging.
func (db *DB) ExplainContext(ctx context.Context, sql string) (string, error) {
	sel, err := sqlparse.Parse(sql)
	if err != nil {
		return "", err
	}
	return db.explainSelect(ctx, sel)
}

// explainSelect renders the plan of an already-parsed SELECT — the shared
// body of ExplainContext and the EXPLAIN statement.
func (db *DB) explainSelect(ctx context.Context, sel *sqlparse.Select) (string, error) {
	if len(sel.Joins) > 0 {
		plan, _, err := db.planParsed(ctx, sel)
		if err != nil {
			return "", err
		}
		return plan.String(), nil
	}
	var b strings.Builder
	e := db.NewExecContext(ctx)
	// The access decision (issues the planner's metered catalog GET and,
	// with an index, its probes, like join Explain does).
	ap, err := e.planAccess(sel)
	if err != nil {
		return "", err
	}
	pushedSQL := pushedScan(sel, nil).String()
	if ap != nil {
		b.WriteString(ap.String())
		pushedSQL = ap.PushedSQL
	} else if _, why := db.pushableShape(sel); why != "" {
		fmt.Fprintf(&b, "not pushed beyond selection + projection: %s\n", why)
	}
	// With a result cache configured, report how much of the scan really
	// pushed is already resident ("cached scan") so a warm repeat's near-zero
	// storage bill is visible before running.
	cached := ""
	if frac := e.cachedScanFrac(sel.Table, pushedSQL); frac > 0 {
		cached = fmt.Sprintf("  [cached scan %.0f%%]", 100*frac)
	}
	switch {
	case ap != nil && ap.Strategy == StrategyIndexScan:
		fmt.Fprintf(&b, "IndexScan: probe index %s(%s), fetch ~%d ranges in ~%d multi-range GETs, re-filter %s locally\n",
			sel.Table, ap.Index.Entry.Column, ap.EstRanges, ap.EstRangedGets, sel.Where.String())
	case ap != nil && ap.Strategy == StrategyBaseline:
		fmt.Fprintf(&b, "server-side baseline: GET every partition of %s, filter %s locally\n",
			sel.Table, sel.Where.String())
	case isSimple(sel):
		fmt.Fprintf(&b, "S3 Select (full pushdown): %s%s\n", sel.String(), cached)
		return b.String(), nil
	case ap != nil && ap.Pushed != "":
		fmt.Fprintf(&b, "S3 Select (%s pushdown): %s%s\n", ap.Pushed, pushedSQL, cached)
		if len(sel.GroupBy) > 0 {
			b.WriteString("server: merge the partitions' rows, check that every filtered row fell in exactly one group\n")
		}
	default:
		fmt.Fprintf(&b, "S3 Select (selection+projection pushdown): %s%s\n", pushedSQL, cached)
	}
	writeLocalTail(&b, "", sel)
	return b.String(), nil
}

// writeLocalTail describes the server-side tail finishLocal will run for
// sel, one indented "server:" line per step (Explain and QueryPlan.String).
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
