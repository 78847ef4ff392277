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
// Each operator has one implementation. Filter, Project and GroupBy (and the
// grouped scan's fold, groupFold) run expr.RowExec — the executor the S3
// Select engine runs on the storage side — bound once to a relation's header
// and fed its rows as they are; HashJoin is one chained hash table over the
// rows' key cells. Each splits its rows into contiguous spans at the worker
// count (vec.RowSpans) and merges them in span order, so every answer and
// the first error are one span's; the zero value runs one span, which is
// what the tpch Baselines and WithVectorized(false) run. Every relation the
// engine builds is as wide as its header (value.CSVCell), and no vector is
// built from its rows: vectors come only from colformat. Query execution
// reaches the operators through one dispatch point (Exec.runOp).

// Operators is the local operator set: Workers spans a row loop splits
// into, one at Workers <= 1.
type Operators struct {
	Workers int
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

// Filter keeps the rows matching pred (nil keeps the relation as it is) on
// the row path. Kept rows share the input's row slices.
func (o Operators) Filter(rel *Relation, pred sqlparse.Expr) (*Relation, error) {
	if pred == nil {
		return rel, nil
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

// Project evaluates the select items over each row on the row path. Row i
// is the window cells[i*w:(i+1)*w:(i+1)*w] of one array, as joinRows writes
// them.
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

// spans splits n rows as every operator runs them: vec.RowSpans at the
// worker count, one span at Workers <= 1.
func (o Operators) spans(n int) []vec.Span {
	if o.Workers <= 1 || n < 2 {
		return []vec.Span{{Hi: n}}
	}
	return vec.RowSpans(n, o.Workers)
}

// eachSpan is the row path: rel's rows run in spans (o.spans), each through
// the block built for it, whose emit reads the row being run from *i; no
// rows still build one. The first error in span order is the lowest erroring
// row's.
func (o Operators) eachSpan(rel *Relation, block func(i *int) (*expr.RowExec, error)) error {
	return vec.RunSpans(o.spans(len(rel.Rows)), func(_ int, sp vec.Span) error {
		var i int
		x, err := block(&i)
		for i = sp.Lo; err == nil && i < sp.Hi; i++ {
			err = x.Add(rel.Rows[i])
		}
		if err == nil {
			err = x.Finish()
		}
		return err
	})
}

// GroupBy groups rel by the key expressions and evaluates the aggregate
// select items, one output row per group in first-seen group order. With no
// keys it is a plain aggregation, whose one row it yields over zero input
// rows too (COUNT = 0, other aggregates NULL). It is one aggregation block
// per span (o.spans), each span after the first a Partial of the first's
// block that merges into it in span order, so the groups, their order and
// the first error are one block's over every row.
func (o Operators) GroupBy(rel *Relation, keys []sqlparse.Expr, items []sqlparse.SelectItem) (*Relation, error) {
	out := &Relation{Cols: itemCols(rel, items)}
	x, err := expr.NewAggregation(rel.Cols, nil, keys, sqlparse.ItemExprs(items), out.collect())
	if err != nil {
		return nil, err
	}
	sps, blocks := o.spans(len(rel.Rows)), []*expr.RowExec{x}
	for range sps[1:] {
		blocks = append(blocks, x.Partial())
	}
	err = vec.RunSpans(sps, func(w int, sp vec.Span) (err error) {
		for i := sp.Lo; err == nil && i < sp.Hi; i++ {
			err = blocks[w].Add(rel.Rows[i])
		}
		return err
	})
	for _, p := range blocks[1:] {
		if err == nil {
			err = x.Merge(p)
		}
	}
	if err == nil {
		err = x.Finish()
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// collect is the RowExec emit that appends each output row to r: a copy
// (the executor reuses the row it emits) cut from one slab, so the rows cost
// O(cells / chunk) allocations and each has cap == len.
func (r *Relation) collect() func([]value.Value) error {
	var slab arena.Slab[value.Value]
	return func(vals []value.Value) error {
		row := slab.Make(len(vals))
		copy(row, vals)
		r.Rows = append(r.Rows, row)
		return nil
	}
}

// HashJoin joins left (build side) and right (probe side) on equality of
// the named key columns; the output concatenates both sides' columns, in
// probe-row order with each probe row's matches in build-row order. NULL
// keys never match. Keys hash and compare by value.Hash and value.Equal, so
// a numeric-looking string key joins the number it equals. The build side
// is one hash table (hashTable), which a load probing as it decodes
// (Load.Build) shares; the probe runs over spans (o.spans), the matched
// pairs merging in span order.
func (o Operators) HashJoin(left, right *Relation, leftKey, rightKey string) (*Relation, error) {
	li, ri, err := joinKeys(left.Cols, right.Cols, leftKey, rightKey)
	if err != nil {
		return nil, err
	}
	t := o.hashTable(left.Rows, li)
	sps := o.spans(len(right.Rows))
	parts := make([][]joinPair, len(sps))
	_ = vec.RunSpans(sps, func(w int, sp vec.Span) error {
		var match []int
		for p := sp.Lo; p < sp.Hi; p++ {
			match = t.matches(right.Rows[p][ri], match[:0])
			for _, b := range match {
				parts[w] = append(parts[w], joinPair{b: b, p: p})
			}
		}
		return nil
	})
	pairs := parts[0]
	if len(parts) > 1 {
		pairs = slices.Concat(parts...)
	}
	return o.joinRows(left, right, pairs), nil
}

// joinKeys is the positions of a join's keys in the build side's columns
// and the probe side's, or the error naming the first that is missing.
func joinKeys(build, probe []string, buildKey, probeKey string) (int, int, error) {
	li, ri := sqlparse.NewNames(build).Index(buildKey), sqlparse.NewNames(probe).Index(probeKey)
	if li < 0 {
		return 0, 0, fmt.Errorf("engine: join key %q not in left relation %v", buildKey, build)
	}
	if ri < 0 {
		return 0, 0, fmt.Errorf("engine: join key %q not in right relation %v", probeKey, probe)
	}
	return li, ri, nil
}

// hashTable is a join's build side: one chained hash table over the key
// cells rows[i][k], not a list per key. head maps a hash to its first row
// plus one, next links a row to the next with its hash (-1 ends a chain),
// linked last to first so chains ascend. Built, it is only read, so
// probes may share it.
type hashTable struct {
	rows []Row
	k    int
	head map[uint64]int
	next []int
}

// hashTable builds the table over rows' key cells at k, hashing over spans.
func (o Operators) hashTable(rows []Row, k int) *hashTable {
	n := len(rows)
	hashes := make([]uint64, n)
	_ = vec.RunSpans(o.spans(n), func(_ int, sp vec.Span) error {
		for i := sp.Lo; i < sp.Hi; i++ {
			hashes[i] = rows[i][k].Hash()
		}
		return nil
	})
	t := &hashTable{rows: rows, k: k, head: make(map[uint64]int, n), next: make([]int, n)}
	for i := n - 1; i >= 0; i-- {
		if !rows[i][k].IsNull() {
			t.next[i] = t.head[hashes[i]] - 1
			t.head[hashes[i]] = i + 1
		}
	}
	return t
}

// matches appends to match the rows whose key equals key, ascending; a NULL
// key matches none.
func (t *hashTable) matches(key value.Value, match []int) []int {
	if key.IsNull() {
		return match
	}
	for i := t.head[key.Hash()] - 1; i >= 0; i = t.next[i] {
		if value.Equal(t.rows[i][t.k], key) {
			match = append(match, i)
		}
	}
	return match
}

// joinPair is one match: build row b, probe row p.
type joinPair struct{ b, p int }

// joinRows writes the joined row of each pair into one array, over spans.
// Row k is the window cells[k*w:(k+1)*w:(k+1)*w]: an append to it
// reallocates it, never writing into row k+1. A kept row pins the array.
func (o Operators) joinRows(left, right *Relation, pairs []joinPair) *Relation {
	out := &Relation{Cols: append(slices.Clip(left.Cols), right.Cols...), Rows: make([]Row, len(pairs))}
	lw, w := len(left.Cols), len(out.Cols)
	cells := make([]value.Value, len(pairs)*w)
	_ = vec.RunSpans(o.spans(len(pairs)), func(_ int, sp vec.Span) error {
		for k := sp.Lo; k < sp.Hi; k++ {
			row := cells[k*w : (k+1)*w : (k+1)*w]
			copy(row, left.Rows[pairs[k].b])
			copy(row[lw:], right.Rows[pairs[k].p])
			out.Rows[k] = row
		}
		return nil
	})
	return out
}

// SortLocal orders rows by the given keys (stable), over one span.
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
// it hands fn the operator set this execution runs — spans at the worker
// budget, or one span under WithVectorized(false) — under a span recording
// the input and output cardinalities.
func (e *Exec) runOp(name string, rowsIn int, fn func(Operators) (*Relation, error)) (*Relation, error) {
	sp := e.parent().Child(name)
	sp.SetInt("rows_in", int64(rowsIn))
	o := Operators{Workers: e.workers()}
	if e.db.oneSpan {
		o = Operators{}
	}
	out, err := fn(o)
	if err == nil {
		sp.SetInt("rows_out", int64(len(out.Rows)))
	}
	sp.EndErr(err)
	return out, err
}

func (e *Exec) projectLocal(rel *Relation, items []sqlparse.SelectItem) (*Relation, error) {
	return e.runOp("project", len(rel.Rows), func(o Operators) (*Relation, error) { return o.Project(rel, items) })
}

// groupByLocal runs the grouping operator (no keys: a plain aggregation)
// over rel or, with a fold, finishes the block a grouped scan folded its
// responses into — first-seen group order and the first error are the
// concatenated relation's.
func (e *Exec) groupByLocal(rel *Relation, fold *groupFold, keys []sqlparse.Expr, items []sqlparse.SelectItem) (*Relation, error) {
	name := "groupby"
	if len(keys) == 0 {
		name = "aggregate"
	}
	if fold != nil {
		return e.runOp(name, int(fold.rows), func(Operators) (*Relation, error) { return fold.finish() })
	}
	return e.runOp(name, len(rel.Rows), func(o Operators) (*Relation, error) { return o.GroupBy(rel, keys, items) })
}
