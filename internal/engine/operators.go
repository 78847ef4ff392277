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
// is parsed once, by the front end, never by an operator.

// Operators is the local operator set. The zero value is the sequential
// reference.
type Operators struct {
	// Vectorized runs the internal/vec kernels over Workers goroutines;
	// false runs the sequential row-at-a-time reference.
	Vectorized bool
	Workers    int
}

// columnItems is the select list projecting the named columns.
func columnItems(cols []string) []sqlparse.SelectItem {
	items := make([]sqlparse.SelectItem, len(cols))
	for i, c := range cols {
		items[i] = sqlparse.SelectItem{Expr: &sqlparse.Column{Name: c}}
	}
	return items
}

// isStar reports whether a select item is *.
func isStar(it sqlparse.SelectItem) bool {
	_, star := it.Expr.(*sqlparse.Star)
	return star
}

// itemCols names the output columns of a select list over rel (* expands
// to rel's columns).
func itemCols(rel *Relation, items []sqlparse.SelectItem) []string {
	var cols []string
	for _, it := range items {
		if isStar(it) {
			cols = append(cols, rel.Cols...)
			continue
		}
		cols = append(cols, it.Name())
	}
	return cols
}

// referencedCols resolves every column the expressions reference against
// the relation (the name rule, as the reference resolves them) and returns
// the distinct column indices in first-seen order. Names that do not
// resolve are dropped: they are lookup misses on both paths.
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
	cur := cursor(rel)
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
		return &Relation{Cols: out.Cols, Rows: out.ToRows()}, nil
	}
	cur := cursor(rel)
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
		if isStar(it) {
			b, _ := vec.FromRows(rel.Cols, rel.Rows, o.Workers)
			return b
		}
		exprs = append(exprs, it.Expr)
	}
	return o.batch(rel, exprs)
}

// GroupBy groups rel by the key expressions and evaluates the aggregate
// select items, one output row per group in first-seen group order. With no
// keys it is a plain aggregation, whose one row it yields over zero input
// rows too (COUNT = 0, other aggregates NULL).
func (o Operators) GroupBy(rel *Relation, keys []sqlparse.Expr, items []sqlparse.SelectItem) (*Relation, error) {
	if o.Vectorized {
		b := o.batch(rel, append(sqlparse.ItemExprs(items), keys...))
		cols, rows, err := vec.GroupBy(b, &sqlparse.Select{Items: items, GroupBy: keys}, o.Workers)
		return &Relation{Cols: cols, Rows: rows}, err
	}
	cur := cursor(rel)
	out := &Relation{Cols: itemCols(rel, items)}
	if err := cur.run(expr.NewAggregation(nil, keys, sqlparse.ItemExprs(items), out.add)); err != nil {
		return nil, err
	}
	return out, nil
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
	if o.Vectorized {
		bi, pi := vec.JoinPairs(vec.FromColumn(left.Rows, li), vec.FromColumn(right.Rows, ri), o.Workers)
		return joinRows(left, right, bi, pi, o.Workers), nil
	}
	build := map[uint64][]int{}
	for i, lrow := range left.Rows {
		if k := lrow[li]; !k.IsNull() {
			build[k.Hash()] = append(build[k.Hash()], i)
		}
	}
	var bi, pi []int
	for p, rrow := range right.Rows {
		k := rrow[ri]
		if k.IsNull() {
			continue
		}
		for _, i := range build[k.Hash()] {
			if value.Equal(left.Rows[i][li], k) {
				bi, pi = append(bi, i), append(pi, p)
			}
		}
	}
	return joinRows(left, right, bi, pi, 1), nil
}

// joinRows writes the joined row of each (build, probe) pair into one array,
// span-parallel. Row k is the window cells[k*w:(k+1)*w:(k+1)*w]: an append
// to it reallocates it, never writing into row k+1. A kept row pins the array.
func joinRows(left, right *Relation, bi, pi []int, workers int) *Relation {
	out := &Relation{Cols: append(slices.Clip(left.Cols), right.Cols...), Rows: make([]Row, len(bi))}
	lw, w := len(left.Cols), len(out.Cols)
	cells := make([]value.Value, len(bi)*w)
	_ = vec.RunSpans(vec.RowSpans(len(bi), workers), func(_ int, sp vec.Span) error {
		for k := sp.Lo; k < sp.Hi; k++ {
			row := cells[k*w : (k+1)*w : (k+1)*w]
			copy(row, left.Rows[bi[k]])
			copy(row[lw:], right.Rows[pi[k]])
			out.Rows[k] = row
		}
		return nil
	})
	return out
}

// SortLocal orders rows by the given keys (stable), on the sequential
// reference's executor.
func SortLocal(rel *Relation, orderBy []sqlparse.OrderItem) (*Relation, error) {
	type keyed struct {
		keys Row
		row  Row
	}
	keyExprs := make([]sqlparse.Expr, len(orderBy))
	for j, o := range orderBy {
		keyExprs[j] = o.Expr
	}
	cur := cursor(rel)
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
		return &Relation{Cols: cols, Rows: rows}, err
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
