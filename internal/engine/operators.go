package engine

import (
	"bytes"
	"fmt"
	"slices"

	"pushdowndb/internal/arena"
	"pushdowndb/internal/expr"
	"pushdowndb/internal/sqlparse"
	"pushdowndb/internal/value"
	"pushdowndb/internal/vec"
)

// Local operators: the server-side filter, project, group-by, aggregate
// and hash join every algorithm of Sections IV–VII ends in, on one surface
// that takes parsed input (sqlparse expressions, select items, group keys).
// There is one row path: expr.RowExec — the executor the S3 Select engine
// runs on the storage side — bound once to a relation's header and fed its
// rows as they are, over contiguous spans.
// Project runs it on both operator sets, and so does every filter the
// vec.Filter kernel does not compile; the vectorized set runs the internal/vec
// kernels (compiled filters, group-by, join) across the worker budget, and
// the reference — one span, no vectors — is what they must reproduce byte
// for byte, for the differential batteries and the benchmark oracle
// (WithVectorized(false)). Every relation the engine builds is as wide as
// its header (value.CSVCell). Query execution reaches the operators through
// one dispatch point (Exec.runOp).

// Operators is the local operator set. The zero value is the sequential
// reference.
type Operators struct {
	// Vectorized runs the internal/vec kernels, and the row path over
	// vec.RowSpans, on Workers goroutines.
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

// batch decodes the columns the expressions read into vectors: their binding
// to rel's header lists them, and refuses a column rel lacks.
func (o Operators) batch(rel *Relation, exprs []sqlparse.Expr) (*vec.Batch, error) {
	var ev expr.Evaluator
	if err := ev.Bind(expr.Index(rel.Cols), exprs...); err != nil {
		return nil, err
	}
	return vec.FromRowsProjected(rel.Cols, rel.Rows, ev.Cols(), o.Workers), nil
}

// Filter keeps the rows matching pred (nil keeps the relation as it is).
// Kept rows share the input's row slices. A predicate vec.Filter compiles
// runs on the kernel in the vectorized set; every other runs the row path.
func (o Operators) Filter(rel *Relation, pred sqlparse.Expr) (*Relation, error) {
	if pred == nil {
		return rel, nil
	}
	if o.Vectorized && vec.Compiles(pred) {
		if b, err := o.batch(rel, []sqlparse.Expr{pred}); err != nil {
			return nil, err
		} else if idx, ok := vec.Filter(b, pred, o.Workers); ok {
			out := &Relation{Cols: rel.Cols, Rows: make([]Row, len(idx))}
			for k, i := range idx {
				out.Rows[k] = rel.Rows[i]
			}
			return out, nil
		}
	}
	keep := make([]byte, len(rel.Rows)) // 1: the row passes
	err := o.eachSpan(rel, func(i *int) (*expr.RowExec, error) {
		return expr.NewProjection(rel.Cols, pred, nil, func([]value.Value) error {
			keep[*i] = 1
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	out := &Relation{Cols: rel.Cols, Rows: make([]Row, 0, bytes.Count(keep, []byte{1}))}
	for i, k := range keep {
		if k == 1 {
			out.Rows = append(out.Rows, rel.Rows[i])
		}
	}
	return out, nil
}

// Project evaluates the select items over each row on the row path: no
// kernel would read vectors. Row i is the window cells[i*w:(i+1)*w:(i+1)*w]
// of one array, as joinRows writes them.
func (o Operators) Project(rel *Relation, items []sqlparse.SelectItem) (*Relation, error) {
	out := &Relation{Cols: itemCols(rel, items), Rows: make([]Row, len(rel.Rows))}
	w := len(out.Cols)
	cells := make([]value.Value, len(rel.Rows)*w)
	exprs := sqlparse.ItemExprs(items)
	err := o.eachSpan(rel, func(i *int) (*expr.RowExec, error) {
		return expr.NewProjection(rel.Cols, nil, exprs, func(vals []value.Value) error {
			row := cells[*i*w : (*i+1)*w : (*i+1)*w]
			copy(row, vals)
			out.Rows[*i] = row
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// eachSpan is the row path: rel's rows run in spans (vec.RowSpans on the
// vectorized set, one span on the reference), each through the block built
// for it, whose emit reads the row being run from *i; no rows still build
// one. The first error in span order is the lowest erroring row's.
func (o Operators) eachSpan(rel *Relation, block func(i *int) (*expr.RowExec, error)) error {
	run := func(_ int, sp vec.Span) error {
		var i int
		x, err := block(&i)
		for i = sp.Lo; err == nil && i < sp.Hi; i++ {
			err = x.Add(rel.Rows[i])
		}
		if err == nil {
			err = x.Finish()
		}
		return err
	}
	if !o.Vectorized || o.Workers <= 1 || len(rel.Rows) < 2 {
		return run(0, vec.Span{Hi: len(rel.Rows)})
	}
	return vec.RunSpans(vec.RowSpans(len(rel.Rows), o.Workers), run)
}

// GroupBy groups rel by the key expressions and evaluates the aggregate
// select items, one output row per group in first-seen group order. With no
// keys it is a plain aggregation, whose one row it yields over zero input
// rows too (COUNT = 0, other aggregates NULL).
func (o Operators) GroupBy(rel *Relation, keys []sqlparse.Expr, items []sqlparse.SelectItem) (*Relation, error) {
	if o.Vectorized {
		b, err := o.batch(rel, append(sqlparse.ItemExprs(items), keys...))
		if err != nil {
			return nil, err
		}
		cols, rows, err := vec.GroupBy(b, &sqlparse.Select{Items: items, GroupBy: keys}, o.Workers)
		return &Relation{Cols: cols, Rows: rows}, err
	}
	out := &Relation{Cols: itemCols(rel, items)}
	if err := o.eachSpan(rel, func(*int) (*expr.RowExec, error) {
		return expr.NewAggregation(rel.Cols, nil, keys, sqlparse.ItemExprs(items), out.add)
	}); err != nil {
		return nil, err
	}
	return out, nil
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
	ks := make([]keyed, 0, len(rel.Rows))
	var slab arena.Slab[value.Value]
	slab.Grow(len(rel.Rows) * len(orderBy))
	err := Operators{}.eachSpan(rel, func(i *int) (*expr.RowExec, error) {
		return expr.NewProjection(rel.Cols, nil, keyExprs, func(keys []value.Value) error {
			own := slab.Make(len(keys)) // the executor reuses keys
			copy(own, keys)
			ks = append(ks, keyed{keys: own, row: rel.Rows[*i]})
			return nil
		})
	})
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
// over rel or, with a fold, finishes the group table a grouped scan folded
// its responses into — first-seen group order and the first error are the
// concatenated relation's.
func (e *Exec) groupByLocal(rel *Relation, fold *vec.Fold, keys []sqlparse.Expr, items []sqlparse.SelectItem) (*Relation, error) {
	name := "groupby"
	if len(keys) == 0 {
		name = "aggregate"
	}
	if fold != nil {
		return e.runOp(name, int(fold.Rows), func(Operators) (*Relation, error) {
			cols, rows, err := vec.Finish(fold.Table, items)
			return &Relation{Cols: cols, Rows: rows}, err
		})
	}
	return e.runOp(name, len(rel.Rows), func(o Operators) (*Relation, error) { return o.GroupBy(rel, keys, items) })
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
