package vec

import (
	"pushdowndb/internal/arena"
	"pushdowndb/internal/expr"
	"pushdowndb/internal/sqlparse"
	"pushdowndb/internal/value"
)

// GroupBy mirrors the engine's reference group-by over a batch: a fresh
// group table, the batch accumulated into it, the table finished. Returns
// the output column names and rows.
func GroupBy(b *Batch, sel *sqlparse.Select, workers int) ([]string, [][]value.Value, error) {
	t, err := expr.NewGroups(nil, sel.GroupBy, sqlparse.ItemExprs(sel.Items))
	if err != nil {
		return nil, nil, err
	}
	if err := Accumulate(t, b, workers); err != nil {
		return nil, nil, err
	}
	return Finish(t, sel.Items)
}

// Finish finalizes t, a table over items' expressions: the output column
// names and one row per group, in first-seen order.
func Finish(t *expr.Groups, items []sqlparse.SelectItem) ([]string, [][]value.Value, error) {
	cols := make([]string, len(items))
	for i, it := range items {
		cols[i] = it.Name()
	}
	var rows [][]value.Value
	var slab arena.Slab[value.Value]
	err := t.Finish(func(row []value.Value) error {
		rows = append(rows, append(slab.Make(len(row))[:0], row...)) // Finish reuses row
		return nil
	})
	return cols, rows, err
}

// Accumulate folds the rows of b, in row order, into t — the row path's own
// group table and exact big.Float accumulators — so batches accumulated in
// sequence (a scan's partitions, say) group exactly as their concatenation
// would. One worker folds straight into t; more each fill a partial table
// over a contiguous span, and the partials merge into t in span order
// (reproducing the sequential first-seen group order). The speedup comes
// from the binding: keys and aggregate inputs that are columns are read
// from their vectors by ordinal.
func Accumulate(t *expr.Groups, b *Batch, workers int) error {
	sps := RowSpans(b.Len(), workers)
	if len(sps) <= 1 {
		return bind(t, b).fold(0, b.Len())
	}
	parts := make([]*expr.Groups, len(sps))
	err := RunSpans(sps, func(w int, sp Span) error {
		parts[w] = t.Partial()
		return bind(parts[w], b).fold(sp.Lo, sp.Hi)
	})
	for _, p := range parts {
		if err == nil {
			err = t.Merge(p)
		}
	}
	return err
}

// binding is Accumulate's first half, done once per batch layout: each group
// key and aggregate argument of a table resolved to the ordinal of the
// batch's column it is, or bound as an expression to evaluate per row. fold,
// the second half, allocates nothing but the table's new groups.
type binding struct {
	t          *expr.Groups
	b          *Batch
	keys, aggs []source
	ev         *expr.Evaluator // the expression sources', over row
	row        []value.Value   // the current row's cells of the columns ev reads
	err        error           // the first source that did not bind: fold's
	key        []byte
	keyVals    []value.Value // Insert copies it
	day        value.Value   // the last date key rendered, as dayText
	dayText    []byte
}

// source is a column's ordinal, or with col < 0 an expression (nil:
// COUNT(*)'s row marker).
type source struct {
	col int
	e   sqlparse.Expr
}

// bind refuses a name b lacks (expr.ErrUnknownColumn), whatever rows follow.
func bind(t *expr.Groups, b *Batch) *binding {
	x := &binding{t: t, b: b, ev: new(expr.Evaluator), keyVals: make([]value.Value, len(t.Keys())), row: make([]value.Value, len(b.Vecs))}
	for _, k := range t.Keys() {
		x.keys = append(x.keys, x.source(k))
	}
	for _, a := range t.Aggregates() {
		if _, star := a.X.(*sqlparse.Star); star {
			x.aggs = append(x.aggs, source{col: -1})
		} else {
			x.aggs = append(x.aggs, x.source(a.X))
		}
	}
	return x
}

// source resolves e to the batch's column it names, or binds it.
func (x *binding) source(e sqlparse.Expr) source {
	if c, ok := e.(*sqlparse.Column); ok {
		if j := x.b.ColIndex(c.Name); j >= 0 {
			return source{col: j}
		}
	}
	if err := x.ev.Bind(x.b.ColIndex, e); x.err == nil {
		x.err = err
	}
	return source{col: -1, e: e}
}

// at is s's value at row i, an expression's over row.
func (x *binding) at(s source, i int) (value.Value, error) {
	switch {
	case s.col >= 0:
		return x.b.Vecs[s.col].Value(i), nil
	case s.e == nil:
		return value.Int(1), nil
	}
	return x.ev.Eval(s.e, x.row)
}

// fold folds rows [lo, hi) of the batch into the table, in row order. Each
// key is read or evaluated once per row, and a new group keeps the values
// its key was rendered from.
func (x *binding) fold(lo, hi int) error {
	if x.err != nil {
		return x.err
	}
	for i := lo; i < hi; i++ {
		for _, c := range x.ev.Cols() {
			x.row[c] = x.b.Vecs[c].Value(i)
		}
		key := x.key[:0]
		for j, k := range x.keys {
			kv, err := x.at(k, i)
			if err != nil {
				return err
			}
			if x.keyVals[j] = kv; kv.Kind() != value.KindDate {
				key = kv.Append(key) // NULL renders as nothing
			} else {
				if kv != x.day {
					x.day, x.dayText = kv, kv.Append(x.dayText[:0])
				}
				key = append(key, x.dayText...)
			}
			key = append(key, 0)
		}
		x.key = key
		g := x.t.Find(key)
		if g == nil {
			g = x.t.Insert(key, x.keyVals)
		}
		for a, s := range x.aggs {
			v, err := x.at(s, i)
			if err == nil {
				err = g.States[a].Add(v)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}
