package engine

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"

	"pushdowndb/internal/arena"
	"pushdowndb/internal/expr"
	"pushdowndb/internal/sqlparse"
	"pushdowndb/internal/value"
)

// Local operators: the server-side filter, project, group-by, aggregate
// and hash join every algorithm of Sections IV–VII ends in, as package
// functions over parsed input (sqlparse expressions, select items, group
// keys). Each is one loop over its rows. Filter, Project and GroupBy (and
// the grouped scan's fold, groupFold) run expr.RowExec — the executor the S3
// Select engine runs on the storage side — bound once to a relation's header
// and fed its rows as they are; HashJoin is one chained hash table over the
// rows' key cells. The engine's parallelism is per partition (forEachPart),
// as the paper's is per request; no operator starts a goroutine. Every
// relation the engine builds is as wide as its header (value.CSVCell), and
// no vector is built from its rows: vectors come only from colformat. Query
// execution reaches the operators through one dispatch point (Exec.runOp).

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
func Filter(rel *Relation, pred sqlparse.Expr) (*Relation, error) {
	if pred == nil {
		return rel, nil
	}
	keep := make([]byte, len(rel.Rows)) // 1: the row passes
	var i int
	x, err := expr.NewProjection(rel.Cols, pred, nil, func([]value.Value) error {
		keep[i] = 1
		return nil
	})
	if err == nil {
		err = runRows(x, rel, &i)
	}
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
func Project(rel *Relation, items []sqlparse.SelectItem) (*Relation, error) {
	out := &Relation{Cols: itemCols(rel, items), Rows: make([]Row, len(rel.Rows))}
	w := len(out.Cols)
	cells := make([]value.Value, len(rel.Rows)*w)
	var i int
	x, err := expr.NewProjection(rel.Cols, nil, sqlparse.ItemExprs(items), func(vals []value.Value) error {
		row := cells[i*w : (i+1)*w : (i+1)*w]
		copy(row, vals)
		out.Rows[i] = row
		return nil
	})
	if err == nil {
		err = runRows(x, rel, &i)
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// runRows adds rel's rows to x in order, *i the row being added (which x's
// emit reads), and finishes x: the first error is the lowest erroring row's.
func runRows(x *expr.RowExec, rel *Relation, i *int) (err error) {
	for *i = 0; err == nil && *i < len(rel.Rows); *i++ {
		err = x.Add(rel.Rows[*i])
	}
	if err == nil {
		err = x.Finish()
	}
	return err
}

// GroupBy groups rel by the key expressions and evaluates the aggregate
// select items, one output row per group in first-seen group order. With no
// keys it is a plain aggregation, whose one row it yields over zero input
// rows too (COUNT = 0, other aggregates NULL).
func GroupBy(rel *Relation, keys []sqlparse.Expr, items []sqlparse.SelectItem) (*Relation, error) {
	out := &Relation{Cols: itemCols(rel, items)}
	x, err := expr.NewAggregation(rel.Cols, nil, keys, sqlparse.ItemExprs(items), out.collect())
	if err == nil {
		err = runRows(x, rel, new(int))
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
// is one hash table (newHashTable), which a load probing as it decodes
// (Load.Build) shares.
func HashJoin(left, right *Relation, leftKey, rightKey string) (*Relation, error) {
	li, ri, err := joinKeys(left.Cols, right.Cols, leftKey, rightKey)
	if err != nil {
		return nil, err
	}
	t := newHashTable(left.Rows, li)
	var pairs []joinPair
	var match []int
	for p, row := range right.Rows {
		match = t.matches(row[ri], match[:0])
		for _, b := range match {
			pairs = append(pairs, joinPair{b: b, p: p})
		}
	}
	return joinRows(left, right, pairs), nil
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

// newHashTable builds the table over rows' key cells at k, each hashed as
// it is chained.
func newHashTable(rows []Row, k int) *hashTable {
	n := len(rows)
	t := &hashTable{rows: rows, k: k, head: make(map[uint64]int, n), next: make([]int, n)}
	for i := n - 1; i >= 0; i-- {
		if key := rows[i][k]; !key.IsNull() {
			h := key.Hash()
			t.next[i] = t.head[h] - 1
			t.head[h] = i + 1
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

// joinRows writes the joined row of each pair into one array. Row k is the
// window cells[k*w:(k+1)*w:(k+1)*w]: an append to it reallocates it, never
// writing into row k+1. A kept row pins the array.
func joinRows(left, right *Relation, pairs []joinPair) *Relation {
	out := &Relation{Cols: append(slices.Clip(left.Cols), right.Cols...), Rows: make([]Row, len(pairs))}
	lw, w := len(left.Cols), len(out.Cols)
	cells := make([]value.Value, len(pairs)*w)
	for k, pr := range pairs {
		row := cells[k*w : (k+1)*w : (k+1)*w]
		copy(row, left.Rows[pr.b])
		copy(row[lw:], right.Rows[pr.p])
		out.Rows[k] = row
	}
	return out
}

// SortLocal orders rows by the given keys (stable): TopKLocal keeping every
// row.
func SortLocal(rel *Relation, orderBy []sqlparse.OrderItem) (*Relation, error) {
	return TopKLocal(rel, orderBy, -1)
}

// TopKLocal is the first k rows (k < 0: all) of rel stably sorted by the
// given keys, ranked by a topRows that holds at most k of them: every row's
// keys evaluate, in order, so an error is the lowest erroring row's.
func TopKLocal(rel *Relation, orderBy []sqlparse.OrderItem, k int) (*Relation, error) {
	sk := newSortKeys(rel.Cols, orderBy)
	if sk.err != nil {
		return nil, sk.err
	}
	t := topRows{order: orderBy, k: k}
	t.expect(len(rel.Rows), len(orderBy))
	keys := make([]value.Value, len(orderBy))
	for i, row := range rel.Rows {
		if err := sk.eval(row, keys); err != nil {
			return nil, err
		}
		t.add(keys, int64(i), len(keys))
	}
	top := t.sorted()
	out := &Relation{Cols: rel.Cols, Rows: make([]Row, len(top))}
	for i, r := range top {
		out.Rows[i] = rel.Rows[r.seq]
	}
	return out, nil
}

// topRows ranks rows by their sort keys and then by their order of arrival
// (seq), holding the k best (k < 0: every one) in slots of their own, keys
// first. Once k are held it is a max-heap, its worst row on top, which a
// better row replaces; below k it only collects, so a sort of every row
// builds no heap. A slot is cut from a slab as a row is admitted: a ranking
// holds no more than the rows it admits, whatever its k.
type topRows struct {
	order []sqlparse.OrderItem
	k     int
	held  []ranked
	slab  arena.Slab[value.Value]
}

// ranked is a held row: its slot and its order of arrival.
type ranked struct {
	cells []value.Value
	seq   int64
}

// add offers the row arriving as seq with keys, and returns the slot of w
// cells it now holds, keys filled, for the caller to fill the rest; nil if
// it ranks below the k held. seq must ascend from call to call.
func (t *topRows) add(keys []value.Value, seq int64, w int) []value.Value {
	if t.k < 0 || len(t.held) < t.k {
		slot := t.slab.Make(w)
		copy(slot, keys)
		t.held = append(t.held, ranked{slot, seq})
		for i := len(t.held)/2 - 1; len(t.held) == t.k && i >= 0; i-- {
			t.down(i) // k held: heapify them
		}
		return slot
	}
	if t.k == 0 || t.compare(keys, seq, t.held[0]) >= 0 {
		return nil
	}
	top := &t.held[0]
	slot := top.cells
	copy(slot, keys)
	top.seq = seq
	t.down(0)
	return slot
}

// expect makes the slots of the next rows rows of w cells, as many as t
// can hold, come from one array, and their places in held from another.
func (t *topRows) expect(rows, w int) {
	if t.k >= 0 {
		rows = min(rows, t.k)
	}
	t.slab.Grow(rows * w)
	t.held = slices.Grow(t.held, rows)
}

// compare orders the row with keys arriving as seq against r: keys by
// value.Compare, each DESC one reversed, then arrival.
func (t *topRows) compare(keys []value.Value, seq int64, r ranked) int {
	for j, o := range t.order {
		if c := value.Compare(keys[j], r.cells[j]); c != 0 {
			if o.Desc {
				c = -c
			}
			return c
		}
	}
	return cmp.Compare(seq, r.seq)
}

// down sifts held[i] down the max-heap.
func (t *topRows) down(i int) {
	for {
		worst := i
		for _, c := range [2]int{2*i + 1, 2*i + 2} {
			if c < len(t.held) && t.compare(t.held[c].cells, t.held[c].seq, t.held[worst]) > 0 {
				worst = c
			}
		}
		if worst == i {
			return
		}
		t.held[i], t.held[worst] = t.held[worst], t.held[i]
		i = worst
	}
}

// sorted returns the rows held, best first.
func (t *topRows) sorted() []ranked {
	slices.SortFunc(t.held, func(a, b ranked) int { return t.compare(a.cells, a.seq, b) })
	return t.held
}

// runOp is the one point where query execution reaches a local operator:
// it runs fn under a span recording the input and output cardinalities.
func (e *Exec) runOp(name string, rowsIn int, fn func() (*Relation, error)) (*Relation, error) {
	sp := e.parent().Child(name)
	sp.SetInt("rows_in", int64(rowsIn))
	out, err := fn()
	if err == nil {
		sp.SetInt("rows_out", int64(len(out.Rows)))
	}
	sp.EndErr(err)
	return out, err
}

func (e *Exec) projectLocal(rel *Relation, items []sqlparse.SelectItem) (*Relation, error) {
	return e.runOp("project", len(rel.Rows), func() (*Relation, error) { return Project(rel, items) })
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
		return e.runOp(name, int(fold.rows), fold.finish)
	}
	return e.runOp(name, len(rel.Rows), func() (*Relation, error) { return GroupBy(rel, keys, items) })
}
