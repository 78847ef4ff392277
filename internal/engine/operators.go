package engine

import (
	"fmt"
	"slices"

	"pushdowndb/internal/arena"
	"pushdowndb/internal/expr"
	"pushdowndb/internal/sqlparse"
	"pushdowndb/internal/value"
	"pushdowndb/internal/vec"
)

// Local operators: the server-side filter, project, group-by, aggregate
// and hash join every algorithm of Sections IV–VII ends in. There is one
// surface. Operators takes parsed input (sqlparse expressions, select
// items, group keys) and runs either the batched internal/vec kernels
// across the worker budget or the reference: a plain sequential
// row-at-a-time loop feeding expr.RowExec — the executor the S3 Select
// engine runs on the storage side — whose answers the kernels must
// reproduce byte for byte. The reference exists for the differential
// batteries and the benchmark oracle (WithVectorized(false)), so it is
// written to be read, not to be fast. Every relation the engine builds is
// as wide as its header (value.CSVCell), so the kernels run on all of them
// and a row's cells are indexed directly. Query execution
// reaches the operators through one dispatch point (Exec.runOp); SQL text
// is parsed once, by the front end or by the fragment parsers below, never
// by an operator.

// Operators is the local operator set. The zero value is the sequential
// reference.
type Operators struct {
	// Vectorized runs the internal/vec kernels over Workers goroutines;
	// false runs the sequential row-at-a-time reference.
	Vectorized bool
	Workers    int
}

// The string-taking entry points the hand-written paper algorithms use
// (internal/tpch, internal/harness, the examples): parse the fragment
// once, then run the reference.

// FilterLocal keeps the rows matching the SQL predicate ("" keeps all).
func FilterLocal(rel *Relation, predicate string) (*Relation, error) {
	pred, err := parsePredicate(predicate)
	if err != nil {
		return nil, err
	}
	return Operators{}.Filter(rel, pred)
}

// GroupByLocal groups rel by the groupBy expressions and evaluates the
// aggregate select items, e.g. GroupByLocal(rel, "c_nationkey",
// "c_nationkey, SUM(c_acctbal) AS total").
func GroupByLocal(rel *Relation, groupBy, items string) (*Relation, error) {
	keys, its, err := parseGroupBy(groupBy, items)
	if err != nil {
		return nil, err
	}
	return Operators{}.GroupBy(rel, keys, its)
}

// AggregateLocal evaluates aggregate-only select items over a relation,
// returning a single-row relation.
func AggregateLocal(rel *Relation, items string) (*Relation, error) {
	its, err := parseItems(items)
	if err != nil {
		return nil, err
	}
	return Operators{}.Aggregate(rel, its)
}

// HashJoinLocal joins left and right on equality of leftKey/rightKey. The
// output concatenates both sides' columns.
func HashJoinLocal(left, right *Relation, leftKey, rightKey string) (*Relation, error) {
	return Operators{}.HashJoin(left, right, leftKey, rightKey)
}

// SortLocal orders rows by the given keys.
func SortLocal(rel *Relation, orderBy string) (*Relation, error) {
	keys, err := parseOrderBy(orderBy)
	if err != nil {
		return nil, err
	}
	return sortLocal(rel, keys)
}

// Fragment parsers: the only places the engine turns a SQL fragment into
// an AST — one per fragment kind.

// parsePredicate parses a WHERE-clause fragment; "" is no predicate (nil).
func parsePredicate(predicate string) (sqlparse.Expr, error) {
	if predicate == "" {
		return nil, nil
	}
	pred, err := sqlparse.ParseExpr(predicate)
	if err != nil {
		return nil, fmt.Errorf("engine: bad predicate %q: %w", predicate, err)
	}
	return pred, nil
}

// parseItems parses a select-list fragment.
func parseItems(items string) ([]sqlparse.SelectItem, error) {
	sel, err := sqlparse.Parse("SELECT " + items + " FROM t")
	if err != nil {
		return nil, fmt.Errorf("engine: bad select items %q: %w", items, err)
	}
	return sel.Items, nil
}

// parseProjection parses an optional projection fragment: "" and "*" keep
// the relation as it is (nil).
func parseProjection(projection string) ([]sqlparse.SelectItem, error) {
	if projection == "" || projection == "*" {
		return nil, nil
	}
	return parseItems(projection)
}

// parseGroupBy parses a group-by fragment together with its select list.
func parseGroupBy(groupBy, items string) ([]sqlparse.Expr, []sqlparse.SelectItem, error) {
	sel, err := sqlparse.Parse("SELECT " + items + " FROM t GROUP BY " + groupBy)
	if err != nil {
		return nil, nil, fmt.Errorf("engine: bad group-by: %w", err)
	}
	return sel.GroupBy, sel.Items, nil
}

// parseOrderBy parses an ORDER BY fragment.
func parseOrderBy(orderBy string) ([]sqlparse.OrderItem, error) {
	sel, err := sqlparse.Parse("SELECT * FROM t ORDER BY " + orderBy)
	if err != nil {
		return nil, fmt.Errorf("engine: bad order by %q: %w", orderBy, err)
	}
	return sel.OrderBy, nil
}

// columnItems is the select list projecting the named columns.
func columnItems(cols []string) []sqlparse.SelectItem {
	items := make([]sqlparse.SelectItem, len(cols))
	for i, c := range cols {
		items[i] = sqlparse.SelectItem{Expr: &sqlparse.Column{Name: c}}
	}
	return items
}

// itemCols names the output columns of a select list over rel (* expands
// to rel's columns).
func itemCols(rel *Relation, items []sqlparse.SelectItem) []string {
	var cols []string
	for _, it := range items {
		if _, isStar := it.Expr.(*sqlparse.Star); isStar {
			cols = append(cols, rel.Cols...)
			continue
		}
		cols = append(cols, it.Name())
	}
	return cols
}

// fromVecRows adopts kernel output rows as a relation.
func fromVecRows(cols []string, rows [][]value.Value) *Relation {
	out := &Relation{Cols: cols, Rows: make([]Row, len(rows))}
	for i, r := range rows {
		out.Rows[i] = r
	}
	return out
}

// referencedCols resolves every column the expressions reference against
// the relation (first-match, case-insensitive — the reference's rule) and
// returns the distinct column indices in first-seen order. Names that do
// not resolve are dropped: they are lookup misses on both paths.
func referencedCols(rel *Relation, exprs []sqlparse.Expr) []int {
	seen := map[int]bool{}
	var keep []int
	for _, e := range exprs {
		for _, name := range sqlparse.Columns(e) {
			if j := rel.ColIndex(name); j >= 0 && !seen[j] {
				seen[j] = true
				keep = append(keep, j)
			}
		}
	}
	return keep
}

// batch decodes the columns the expressions reference into vectors.
func (o Operators) batch(rel *Relation, exprs []sqlparse.Expr) *vec.Batch {
	return vec.FromRowsProjected(rel.Cols, rel.Rows, referencedCols(rel, exprs), o.Workers)
}

// Filter keeps the rows matching pred (nil keeps the relation as it is).
// Kept rows share the input's row slices.
func (o Operators) Filter(rel *Relation, pred sqlparse.Expr) (*Relation, error) {
	if pred == nil {
		return rel, nil
	}
	if o.Vectorized {
		idx, err := vec.Filter(o.batch(rel, []sqlparse.Expr{pred}), pred, o.Workers)
		if err != nil {
			return nil, err
		}
		out := &Relation{Cols: rel.Cols, Rows: make([]Row, len(idx))}
		for k, i := range idx {
			out.Rows[k] = rel.Rows[i]
		}
		return out, nil
	}
	cur := &rowEnv{rel: rel}
	out := &Relation{Cols: rel.Cols}
	err := cur.run(expr.NewProjection(pred, nil, nil, func([]value.Value) error {
		out.Rows = append(out.Rows, cur.row)
		return nil
	}))
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Project evaluates the select items over each row, preserving row order.
func (o Operators) Project(rel *Relation, items []sqlparse.SelectItem) (*Relation, error) {
	if o.Vectorized {
		out, err := vec.Project(o.projectionBatch(rel, items), &sqlparse.Select{Items: items}, o.Workers)
		if err != nil {
			return nil, err
		}
		return fromVecRows(out.Cols, out.ToRows()), nil
	}
	cur := &rowEnv{rel: rel}
	out := &Relation{Cols: itemCols(rel, items), Rows: make([]Row, 0, len(rel.Rows))}
	if err := cur.run(expr.NewProjection(nil, sqlparse.ItemExprs(items), cur.star, out.add)); err != nil {
		return nil, err
	}
	return out, nil
}

// projectionBatch builds the batch a projection needs: the whole relation
// when an item is *, only the referenced columns otherwise.
func (o Operators) projectionBatch(rel *Relation, items []sqlparse.SelectItem) *vec.Batch {
	exprs := make([]sqlparse.Expr, 0, len(items))
	for _, it := range items {
		if _, isStar := it.Expr.(*sqlparse.Star); isStar {
			b, _ := vec.FromRows(rel.Cols, rel.Rows, o.Workers)
			return b
		}
		exprs = append(exprs, it.Expr)
	}
	return o.batch(rel, exprs)
}

// GroupBy groups rel by the key expressions and evaluates the aggregate
// select items, one output row per group in first-seen group order.
func (o Operators) GroupBy(rel *Relation, keys []sqlparse.Expr, items []sqlparse.SelectItem) (*Relation, error) {
	if o.Vectorized {
		b := o.batch(rel, append(sqlparse.ItemExprs(items), keys...))
		cols, rows, err := vec.GroupBy(b, &sqlparse.Select{Items: items, GroupBy: keys}, o.Workers)
		return fromVecRows(cols, rows), err
	}
	cur := &rowEnv{rel: rel}
	out := &Relation{Cols: itemCols(rel, items)}
	if err := cur.run(expr.NewAggregation(nil, keys, sqlparse.ItemExprs(items), out.add)); err != nil {
		return nil, err
	}
	return out, nil
}

// Aggregate evaluates aggregate-only select items over the whole relation
// and returns a single row: a group-by with no keys, which yields its one
// row (COUNT = 0, other aggregates NULL) over zero input rows too.
func (o Operators) Aggregate(rel *Relation, items []sqlparse.SelectItem) (*Relation, error) {
	return o.GroupBy(rel, nil, items)
}

// The reference operators share one executor with the S3 Select engine,
// expr.RowExec, and feed it through one cursor: a rowEnv moved over the
// relation's rows, so evaluating a row allocates no environment.

// run feeds every row of the cursor's relation to x, then finishes it.
func (cur *rowEnv) run(x *expr.RowExec) error {
	for _, cur.row = range cur.rel.Rows {
		if err := x.Add(cur); err != nil {
			return err
		}
	}
	return x.Finish()
}

// star is the reference's * expansion: one cell per column, as Lookup reads
// them.
func (cur *rowEnv) star(dst []value.Value) []value.Value {
	n := len(dst)
	dst = append(dst, make([]value.Value, len(cur.rel.Cols))...)
	copy(dst[n:], cur.row)
	return dst
}

// add is the RowExec emit callback that collects output rows into r; the
// executor reuses vals, so the row is copied.
func (r *Relation) add(vals []value.Value) error {
	r.Rows = append(r.Rows, append(Row(nil), vals...))
	return nil
}

// HashJoin joins left (build side) and right (probe side) on equality of
// the named key columns; the output concatenates both sides' columns, in
// probe-row order with each probe row's matches in build-row order. NULL
// keys never match.
func (o Operators) HashJoin(left, right *Relation, leftKey, rightKey string) (*Relation, error) {
	li, ri := left.ColIndex(leftKey), right.ColIndex(rightKey)
	if li < 0 {
		return nil, fmt.Errorf("engine: join key %q not in left relation %v", leftKey, left.Cols)
	}
	if ri < 0 {
		return nil, fmt.Errorf("engine: join key %q not in right relation %v", rightKey, right.Cols)
	}
	out := &Relation{Cols: append(append([]string{}, left.Cols...), right.Cols...)}
	concat := func(lrow, rrow Row) Row {
		joined := make(Row, 0, len(lrow)+len(rrow))
		joined = append(joined, lrow...)
		return append(joined, rrow...)
	}
	if o.Vectorized {
		bi, pi := vec.JoinPairs(keyVector(left, li), keyVector(right, ri), o.Workers)
		out.Rows = make([]Row, len(bi))
		// Materializing the joined rows is pure memory traffic with a fixed
		// output slot per pair, so it parallelizes over contiguous spans.
		_ = vec.RunSpans(vec.RowSpans(len(bi), o.Workers), func(w int, sp vec.Span) error {
			for k := sp.Lo; k < sp.Hi; k++ {
				out.Rows[k] = concat(left.Rows[bi[k]], right.Rows[pi[k]])
			}
			return nil
		})
		return out, nil
	}
	build := map[uint64][]int{}
	for i, lrow := range left.Rows {
		if k := lrow[li]; !k.IsNull() {
			build[k.Hash()] = append(build[k.Hash()], i)
		}
	}
	for _, rrow := range right.Rows {
		k := rrow[ri]
		if k.IsNull() {
			continue
		}
		for _, i := range build[k.Hash()] {
			if lrow := left.Rows[i]; value.Equal(lrow[li], k) {
				out.Rows = append(out.Rows, concat(lrow, rrow))
			}
		}
	}
	return out, nil
}

// keyVector extracts column c of a relation as a vector.
func keyVector(rel *Relation, c int) *vec.Vector {
	vals := make([]value.Value, len(rel.Rows))
	for i, r := range rel.Rows {
		vals[i] = r[c]
	}
	return vec.FromValues(vals)
}

// sortLocal orders rows by the given keys (stable).
func sortLocal(rel *Relation, orderBy []sqlparse.OrderItem) (*Relation, error) {
	type keyed struct {
		keys Row
		row  Row
	}
	keyExprs := make([]sqlparse.Expr, len(orderBy))
	for j, o := range orderBy {
		keyExprs[j] = o.Expr
	}
	cur := &rowEnv{rel: rel}
	ks := make([]keyed, 0, len(rel.Rows))
	var slab arena.Slab[value.Value]
	slab.Grow(len(rel.Rows) * len(orderBy))
	err := cur.run(expr.NewProjection(nil, keyExprs, nil, func(keys []value.Value) error {
		own := slab.Make(len(keys)) // the executor reuses keys
		copy(own, keys)
		ks = append(ks, keyed{keys: own, row: cur.row})
		return nil
	}))
	if err != nil {
		return nil, err
	}
	slices.SortStableFunc(ks, func(a, b keyed) int {
		for j, o := range orderBy {
			if c := value.Compare(a.keys[j], b.keys[j]); c != 0 {
				if o.Desc {
					c = -c
				}
				return c
			}
		}
		return 0
	})
	out := &Relation{Cols: rel.Cols, Rows: make([]Row, len(ks))}
	for i, k := range ks {
		out.Rows[i] = k.row
	}
	return out, nil
}

// runOp is the one point where query execution reaches a local operator:
// it hands fn the operator set this execution runs — the vectorized kernels
// at the worker budget, or the sequential reference under
// WithVectorized(false) — under a span recording the input and output
// cardinalities and which path ran.
func (e *Exec) runOp(name string, rowsIn int, fn func(Operators) (*Relation, error)) (*Relation, error) {
	sp := e.parent().Child(name)
	path := "row"
	if e.db.vectorized {
		path = "vec"
	}
	sp.SetInt("rows_in", int64(rowsIn))
	sp.SetStr("path", path)
	out, err := fn(Operators{Vectorized: e.db.vectorized, Workers: e.workers()})
	if err == nil {
		sp.SetInt("rows_out", int64(len(out.Rows)))
	}
	sp.EndErr(err)
	return out, err
}

func (e *Exec) filterLocal(rel *Relation, pred sqlparse.Expr) (*Relation, error) {
	return e.runOp("filter", len(rel.Rows), func(o Operators) (*Relation, error) { return o.Filter(rel, pred) })
}

func (e *Exec) projectLocal(rel *Relation, items []sqlparse.SelectItem) (*Relation, error) {
	return e.runOp("project", len(rel.Rows), func(o Operators) (*Relation, error) { return o.Project(rel, items) })
}

// groupByLocal runs the grouping operator (no keys: a plain aggregation)
// over rel or, with rel nil, over the typed batches of a grouped scan,
// folded in partition order into one group table — first-seen group order
// and the first error are the concatenated relation's.
func (e *Exec) groupByLocal(rel *Relation, batches []*vec.Batch, keys []sqlparse.Expr, items []sqlparse.SelectItem) (*Relation, error) {
	name := "groupby"
	if len(keys) == 0 {
		name = "aggregate"
	}
	return e.runOp(name, inputRows(rel, batches), func(o Operators) (*Relation, error) {
		if rel != nil {
			return o.GroupBy(rel, keys, items)
		}
		t := expr.NewGroups(expr.New(), keys, sqlparse.ItemExprs(items))
		for _, b := range batches {
			if err := vec.Accumulate(t, b, o.Workers); err != nil {
				return nil, err
			}
		}
		cols, rows, err := vec.Finish(t, items)
		return fromVecRows(cols, rows), err
	})
}

// inputRows counts a tail's input rows: rel's, or with rel nil the batches'.
func inputRows(rel *Relation, batches []*vec.Batch) (n int) {
	if rel != nil {
		return len(rel.Rows)
	}
	for _, b := range batches {
		n += b.Len()
	}
	return n
}

// hashJoinLocal performs the local build/probe and accounts the row work
// on the given stage's "hash join" phase (the stage of the scan that
// produced the probe side, which the join overlaps).
func (e *Exec) hashJoinLocal(stage int, left, right *Relation, leftKey, rightKey string) (*Relation, error) {
	rowsIn := len(left.Rows) + len(right.Rows)
	st := e.step("hash join", "hash join", stage, "")
	st.sp.SetInt("rows_in", int64(rowsIn))
	st.AddServerRows(int64(rowsIn))
	out, err := e.runOp("hash join local", rowsIn, func(o Operators) (*Relation, error) {
		return o.HashJoin(left, right, leftKey, rightKey)
	})
	st.end(err)
	return out, err
}
