package expr

import (
	"slices"

	"pushdowndb/internal/arena"
	"pushdowndb/internal/sqlparse"
	"pushdowndb/internal/value"
)

// group is one group of a groupTable: its key values and one accumulator
// per aggregate of the table's items, in CollectAggregates order.
type group struct {
	key     string
	keyVals []value.Value
	states  []AggState
}

// groupTable is the one group table, an aggregation block's: groups in
// first-seen order, looked up by their rendered key bytes, finalized over one
// row per group — its aggregate results, then its key values. A table with no
// key expressions is a plain aggregation and always holds exactly one group,
// so zero input rows still finalize to one row (COUNT = 0, the other
// aggregates NULL). Groups, accumulators and keys are cut from arena chunks:
// O(groups / chunk) allocations, and a group pins its chunks.
type groupTable struct {
	ev     *Evaluator // the aggregate arguments', which add evaluates
	fin    Evaluator  // the finalized items', bound to finish's rows
	keys   []sqlparse.Expr
	final  []sqlparse.Expr // the items as finish evaluates them (finalItems)
	aggs   []*sqlparse.Aggregate
	index  map[string]*group
	order  []*group
	groups arena.Slab[group]
	states arena.Slab[AggState]
	vals   arena.Slab[value.Value]
	text   arena.Text
}

// newGroupTable returns an empty table grouping by keys and finalizing to
// items, whose aggregate arguments ev evaluates over the input rows. The
// items bind here, to finish's rows: one reading a column that is neither a
// key nor under an aggregate is refused (ErrUnknownColumn).
func newGroupTable(ev *Evaluator, keys, items []sqlparse.Expr) (*groupTable, error) {
	t := &groupTable{ev: ev, keys: keys, aggs: CollectAggregates(items), index: map[string]*group{}}
	var err error
	if t.final, err = finalItems(&t.fin, keys, items, t.aggs); err != nil {
		return nil, err
	}
	return t.start(), nil
}

// start inserts a plain aggregation's one group.
func (t *groupTable) start() *groupTable {
	if len(t.keys) == 0 {
		t.insert(nil, nil)
	}
	return t
}

// partial returns an empty table over t's keys and items, sharing t's
// read-only bindings, for a worker to fill and merge to fold back.
func (t *groupTable) partial() *groupTable {
	return (&groupTable{ev: t.ev, fin: t.fin, keys: t.keys, final: t.final, aggs: t.aggs, index: map[string]*group{}}).start()
}

// find returns the group with the rendered key, or nil. The lookup does
// not materialize the key.
func (t *groupTable) find(key []byte) *group { return t.index[string(key)] }

// insert adds the group for a key find did not have, copying key and
// keyVals and their text (own), as its MIN and MAX states do.
func (t *groupTable) insert(key []byte, keyVals []value.Value) *group {
	g := &t.groups.Make(1)[0]
	g.key, g.keyVals, g.states = t.text.String(key), t.vals.Make(len(keyVals)), t.states.Make(len(t.aggs))
	for i, v := range keyVals {
		g.keyVals[i] = own(v, &t.text)
	}
	for i, a := range t.aggs {
		g.states[i].fn, g.states[i].text = a.Func, &t.text
	}
	t.index[g.key] = g
	t.order = append(t.order, g)
	return g
}

// add folds one input row into g: each aggregate's argument is evaluated
// over row and accumulated (COUNT(*) counts the row).
func (t *groupTable) add(g *group, row []value.Value) error {
	for i, a := range t.aggs {
		v := value.Int(1)
		if _, isStar := a.X.(*sqlparse.Star); !isStar {
			var err error
			if v, err = t.ev.Eval(a.X, row); err != nil {
				return err
			}
		}
		if err := g.states[i].Add(v); err != nil {
			return err
		}
	}
	return nil
}

// merge folds o — a partial of t, typically one worker's — into t. Groups t
// has not seen are adopted in o's order, so merging partials of contiguous
// row spans in span order reproduces the sequential first-seen order.
func (t *groupTable) merge(o *groupTable) error {
	for _, g := range o.order {
		m, ok := t.index[g.key]
		if !ok {
			t.index[g.key] = g
			t.order = append(t.order, g)
			continue
		}
		for i := range m.states {
			if err := m.states[i].Merge(&g.states[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

// finish evaluates the items once per group, in first-seen order, over the
// group's aggregate results and key values. emit receives each output row
// in a slice that the next row reuses.
func (t *groupTable) finish(emit func([]value.Value) error) error {
	buf := make([]value.Value, len(t.aggs)+len(t.keys)+len(t.final))
	in, out := buf[:len(t.aggs)+len(t.keys)], buf[len(t.aggs)+len(t.keys):]
	for _, g := range t.order {
		for i := range t.aggs {
			in[i] = g.states[i].Final()
		}
		copy(in[len(t.aggs):], g.keyVals)
		for j, it := range t.final {
			v, err := t.fin.Eval(it, in)
			if err != nil {
				return err
			}
			out[j] = v
		}
		if err := emit(out); err != nil {
			return err
		}
	}
	return nil
}

// finalItems rewrites the items once, for Finish, binding them into fin:
// each aggregate, then each largest subtree that is a GROUP BY key, becomes
// a reference column bound to its place in Finish's row. An aggregate is
// matched by identity when bare and by SQL text when nested; a key by the
// name rule when a bare column and by SQL text otherwise (SELECT g % 2 + 1 …
// GROUP BY g % 2, or a % b … GROUP BY b, a % b). Aggregate arguments are gone
// by then, so no key rewrite touches one. Any column left is unknown.
func finalItems(fin *Evaluator, keys, items []sqlparse.Expr, aggs []*sqlparse.Aggregate) ([]sqlparse.Expr, error) {
	refs := make([]sqlparse.Column, len(aggs)+len(keys))
	fin.pos = make(map[*sqlparse.Column]int, len(refs))
	for i := range refs {
		fin.pos[&refs[i]] = i
	}
	aggRefs, keyRefs := refs[:len(aggs)], refs[len(aggs):]
	var aggText []string // printed only for an aggregate inside an expression
	toAgg := func(n sqlparse.Expr) sqlparse.Expr {
		if a, ok := n.(*sqlparse.Aggregate); ok {
			if i := slices.Index(aggText, a.String()); i >= 0 {
				return &aggRefs[i]
			}
		}
		return n
	}
	toKey := func(n sqlparse.Expr) sqlparse.Expr {
		c, isCol := n.(*sqlparse.Column)
		_, isRef := fin.pos[c] // only aggregate references are bound yet
		for k, key := range keys {
			kc, bare := key.(*sqlparse.Column)
			if bare && isCol && !isRef && sqlparse.SameName(kc.Name, c.Name) || !bare && n.String() == key.String() {
				return &keyRefs[k]
			}
		}
		return n
	}
	final := make([]sqlparse.Expr, len(items))
	for j, it := range items {
		if a, ok := it.(*sqlparse.Aggregate); ok {
			final[j] = &aggRefs[slices.Index(aggs, a)]
			continue
		}
		if sqlparse.ContainsAggregate(it) {
			for _, a := range aggs[len(aggText):] {
				aggText = append(aggText, a.String())
			}
			it = sqlparse.Rewrite(it, toAgg)
		}
		if len(keys) > 0 {
			it = sqlparse.Rewrite(it, toKey)
		}
		final[j] = it
	}
	return final, fin.Bind(func(string) int { return -1 }, final...)
}

// RowExec is the one row-at-a-time SELECT block, run on both sides of the
// wire: the S3 Select engine feeds it scanned object rows, PushdownDB's
// local operators relation rows and its grouped scans response rows. It is
// bound once, to the header its input rows are laid out as; each input row
// then goes through WHERE and is either projected and emitted at once
// (NewProjection) or folded into a group table that Finish emits
// (NewAggregation). What differs between callers stays with the caller:
// which of the two shapes the block has, which cells of each input row it
// fills (Cols), what becomes of an output row (emit — rendering, LIMIT,
// collection), and how many blocks an aggregation's input is split across
// (Partial, Merge). emit receives each output row in a slice that the next
// row reuses.
type RowExec struct {
	ev    Evaluator // bound to the input rows
	where sqlparse.Expr
	emit  func(row []value.Value) error

	// A projection: the items, the header width * expands to, the output
	// row.
	items []sqlparse.Expr
	width int
	row   []value.Value

	// An aggregation (table non-nil): the group table, which holds the keys
	// and items, and the current row's rendered key and key values.
	table   *groupTable
	key     []byte
	keyVals []value.Value
}

// NewProjection builds the block that emits one row of items per input row
// passing where (nil passes every row); a * item expands to every column of
// header. An aggregate among the items is an evaluation error.
func NewProjection(header []string, where sqlparse.Expr, items []sqlparse.Expr, emit func(row []value.Value) error) (*RowExec, error) {
	x := &RowExec{where: where, items: items, width: len(header), emit: emit}
	return x, x.bind(header, items, where, nil)
}

// NewAggregation builds the block that groups the input rows passing where
// by keys (none: one group, present even over zero rows) and emits one row
// of items per group from Finish, in first-seen group order.
func NewAggregation(header []string, where sqlparse.Expr, keys, items []sqlparse.Expr, emit func(row []value.Value) error) (*RowExec, error) {
	x := &RowExec{where: where, emit: emit, keyVals: make([]value.Value, len(keys))}
	err := x.bind(header, items, where, keys)
	if err == nil {
		x.table, err = newGroupTable(&x.ev, keys, items)
	}
	return x, err
}

// bind binds the block's expressions to header (nil: none, see
// Evaluator.Bind) in the order a scan reads their columns: a * item's (every
// column), the items', WHERE's, the keys'. A block it refuses is unusable.
func (x *RowExec) bind(header []string, items []sqlparse.Expr, where sqlparse.Expr, keys []sqlparse.Expr) error {
	x.ev.cols = make([]int, 0, len(header)) // no more positions than the header's
	if slices.ContainsFunc(items, func(e sqlparse.Expr) bool { _, ok := e.(*sqlparse.Star); return ok }) {
		for i := range header {
			x.ev.cols = append(x.ev.cols, i)
		}
	}
	index := Index(header)
	for _, exprs := range [][]sqlparse.Expr{items, {where}, keys} {
		if err := x.ev.Bind(index, exprs...); err != nil {
			return err
		}
	}
	return nil
}

// Cols returns the header positions whose cells each input row must fill.
func (x *RowExec) Cols() []int { return x.ev.Cols() }

// Add runs one input row, laid out as the block's header, through the
// block. A cell past the row's end is NULL.
func (x *RowExec) Add(row []value.Value) error {
	if x.where != nil {
		ok, err := x.ev.EvalBool(x.where, row)
		if err != nil || !ok {
			return err
		}
	}
	if x.table == nil {
		out := x.row[:0]
		for _, it := range x.items {
			if _, isStar := it.(*sqlparse.Star); isStar {
				out = append(out, row[:min(x.width, len(row))]...)
				for range x.width - len(row) {
					out = append(out, value.Null())
				}
				continue
			}
			v, err := x.ev.Eval(it, row)
			if err != nil {
				return err
			}
			out = append(out, v)
		}
		x.row = out
		return x.emit(out)
	}
	key := x.key[:0]
	for i, k := range x.table.keys {
		v, err := x.ev.Eval(k, row)
		if err != nil {
			return err
		}
		x.keyVals[i] = v
		key = append(v.Append(key), 0)
	}
	x.key = key
	g := x.table.find(key)
	if g == nil {
		g = x.table.insert(key, x.keyVals)
	}
	return x.table.add(g, row)
}

// Partial returns an empty block over aggregation x's binding, keys and
// items, for a worker to fill with a span of x's input; Merge folds it back.
// It shares x's binding, which no row writes: a partial costs its table and
// key buffers, whatever the statement.
func (x *RowExec) Partial() *RowExec {
	return &RowExec{ev: x.ev, where: x.where, emit: x.emit, table: x.table.partial(), keyVals: make([]value.Value, len(x.keyVals))}
}

// Merge folds o, a Partial of x fed the rows after x's, into x's groups.
// Groups x has not seen follow its own in o's first-seen order, so merging
// the partials of ascending spans in span order groups as one block fed
// every row would.
func (x *RowExec) Merge(o *RowExec) error { return x.table.merge(o.table) }

// Finish emits an aggregation's output rows; a projection has already
// emitted everything.
func (x *RowExec) Finish() error {
	if x.table == nil {
		return nil
	}
	return x.table.finish(x.emit)
}
