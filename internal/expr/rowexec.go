package expr

import (
	"pushdowndb/internal/arena"
	"pushdowndb/internal/sqlparse"
	"pushdowndb/internal/value"
)

// Group is one group of a Groups table: its key values and one accumulator
// per aggregate of the table's items, in CollectAggregates order.
type Group struct {
	key     string
	keyVals []value.Value
	States  []AggState
}

// Groups is the one group table: groups in first-seen order, looked up by
// their rendered key bytes, finalized through GroupKeyEnv. A table with no
// key expressions is a plain aggregation and always holds exactly one
// group, so zero input rows still finalize to one row (COUNT = 0, the
// other aggregates NULL). Groups, accumulators and keys are cut from arena
// chunks: O(groups / chunk) allocations, and a group pins its chunks.
type Groups struct {
	ev     *Evaluator
	keys   []sqlparse.Expr
	items  []sqlparse.Expr
	aggs   []*sqlparse.Aggregate
	index  map[string]*Group
	order  []*Group
	groups arena.Slab[Group]
	states arena.Slab[AggState]
	vals   arena.Slab[value.Value]
	text   arena.Text
}

// NewGroups returns an empty table grouping by keys and finalizing to
// items. ev evaluates aggregate arguments and the finalized items.
func NewGroups(ev *Evaluator, keys, items []sqlparse.Expr) *Groups {
	t := &Groups{ev: ev, keys: keys, items: items, aggs: CollectAggregates(items), index: map[string]*Group{}}
	if len(keys) == 0 {
		t.Insert(nil, nil)
	}
	return t
}

// Keys and Aggregates are the table's group-key expressions and the
// aggregate nodes of its items, the latter in Group.States order.
func (t *Groups) Keys() []sqlparse.Expr             { return t.keys }
func (t *Groups) Aggregates() []*sqlparse.Aggregate { return t.aggs }

// Partial returns an empty table over t's keys and items, for a worker to
// fill and Merge to fold back.
func (t *Groups) Partial() *Groups { return NewGroups(New(), t.keys, t.items) }

// Find returns the group with the rendered key, or nil. The lookup does
// not materialize the key.
func (t *Groups) Find(key []byte) *Group { return t.index[string(key)] }

// Insert adds the group for a key Find did not have, copying key and keyVals.
func (t *Groups) Insert(key []byte, keyVals []value.Value) *Group {
	g := &t.groups.Make(1)[0]
	g.key, g.keyVals, g.States = t.text.String(key), append(t.vals.Make(len(keyVals))[:0], keyVals...), t.states.Make(len(t.aggs))
	for i, a := range t.aggs {
		g.States[i].fn = a.Func
	}
	t.index[g.key] = g
	t.order = append(t.order, g)
	return g
}

// Add folds one input row into g: each aggregate's argument is evaluated
// over env and accumulated (COUNT(*) counts the row).
func (t *Groups) Add(g *Group, env Env) error {
	for i, a := range t.aggs {
		v := value.Int(1)
		if _, isStar := a.X.(*sqlparse.Star); !isStar {
			var err error
			if v, err = t.ev.Eval(a.X, env); err != nil {
				return err
			}
		}
		if err := g.States[i].Add(v); err != nil {
			return err
		}
	}
	return nil
}

// Merge folds o — a table over the same keys and items, typically one
// worker's partial — into t. Groups t has not seen are adopted in o's
// order, so merging partials of contiguous row spans in span order
// reproduces the sequential first-seen order.
func (t *Groups) Merge(o *Groups) error {
	for _, g := range o.order {
		m, ok := t.index[g.key]
		if !ok {
			t.index[g.key] = g
			t.order = append(t.order, g)
			continue
		}
		for i := range m.States {
			if err := m.States[i].Merge(&g.States[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

// Finish evaluates the items once per group, in first-seen order, with
// every aggregate replaced by its result and bare group-by columns
// resolving to the group's key values; an item that is a group-by
// expression (SELECT g % 3 … GROUP BY g % 3) is that key's value. emit
// receives each output row in a slice that the next row reuses.
func (t *Groups) Finish(emit func([]value.Value) error) error {
	finals := make(map[*sqlparse.Aggregate]value.Value, len(t.aggs))
	t.ev.aggValues = finals
	defer func() { t.ev.aggValues = nil }()
	env := &GroupKeyEnv{Exprs: t.keys}
	row := make([]value.Value, len(t.items))
	itemKey := t.itemKeys()
	for _, g := range t.order {
		for i, a := range t.aggs {
			finals[a] = g.States[i].Final()
		}
		env.Vals = g.keyVals
		for j, it := range t.items {
			if itemKey != nil && itemKey[j] > 0 {
				row[j] = g.keyVals[itemKey[j]-1]
				continue
			}
			v, err := t.ev.Eval(it, env)
			if err != nil {
				return err
			}
			row[j] = v
		}
		if err := emit(row); err != nil {
			return err
		}
	}
	return nil
}

// itemKeys maps item j to 1 + a group-by expression it prints as, or 0,
// and is nil when no item is one. A bare column key resolves through
// GroupKeyEnv and is skipped, so the usual table prints nothing here.
func (t *Groups) itemKeys() []int {
	var out []int
	for k, key := range t.keys {
		if _, bare := key.(*sqlparse.Column); bare {
			continue
		}
		for j, it := range t.items {
			if it.String() == key.String() {
				if out == nil {
					out = make([]int, len(t.items))
				}
				out[j] = k + 1
			}
		}
	}
	return out
}

// RowExec is the one row-at-a-time SELECT block, run on both sides of the
// wire: the S3 Select engine feeds it scanned object rows, PushdownDB's
// reference operators feed it relation rows. Each input row goes through
// WHERE and is then either projected and emitted at once (NewProjection)
// or folded into a Groups table that Finish emits (NewAggregation). What
// differs between callers stays with the caller: which of the two shapes
// the block has, how an input row is an Env, what * expands to (star), and
// what becomes of an output row (emit — rendering, LIMIT, collection).
// emit receives each output row in a slice that the next row reuses.
type RowExec struct {
	ev    *Evaluator
	where sqlparse.Expr
	emit  func(row []value.Value) error

	// A projection: the items, the caller's * expansion, the output row.
	items []sqlparse.Expr
	star  func(dst []value.Value) []value.Value
	row   []value.Value

	// An aggregation (groups non-nil): the table, which holds the keys and
	// items, and the current row's rendered key and key values.
	groups  *Groups
	key     []byte
	keyVals []value.Value
}

// NewProjection builds the block that emits one row of items per input
// row passing where (nil passes every row). An aggregate among the items
// is an evaluation error. star appends the current input row's * expansion
// to dst; with a nil star, * is an evaluation error too.
func NewProjection(where sqlparse.Expr, items []sqlparse.Expr, star func(dst []value.Value) []value.Value, emit func(row []value.Value) error) *RowExec {
	return &RowExec{ev: New(), where: where, items: items, star: star, emit: emit}
}

// NewAggregation builds the block that groups the input rows passing where
// by keys (none: one group, present even over zero rows) and emits one row
// of items per group from Finish, in first-seen group order.
func NewAggregation(where sqlparse.Expr, keys, items []sqlparse.Expr, emit func(row []value.Value) error) *RowExec {
	ev := New()
	return &RowExec{
		ev: ev, where: where, emit: emit,
		groups: NewGroups(ev, keys, items), keyVals: make([]value.Value, len(keys)),
	}
}

// Add runs one input row through the block.
func (x *RowExec) Add(env Env) error {
	if x.where != nil {
		ok, err := x.ev.EvalBool(x.where, env)
		if err != nil || !ok {
			return err
		}
	}
	if x.groups == nil {
		row := x.row[:0]
		for _, it := range x.items {
			if _, isStar := it.(*sqlparse.Star); isStar && x.star != nil {
				row = x.star(row)
				continue
			}
			v, err := x.ev.Eval(it, env)
			if err != nil {
				return err
			}
			row = append(row, v)
		}
		x.row = row
		return x.emit(row)
	}
	key := x.key[:0]
	for i, k := range x.groups.keys {
		v, err := x.ev.Eval(k, env)
		if err != nil {
			return err
		}
		x.keyVals[i] = v
		key = append(v.Append(key), 0)
	}
	x.key = key
	g := x.groups.Find(key)
	if g == nil {
		g = x.groups.Insert(key, x.keyVals)
	}
	return x.groups.Add(g, env)
}

// Finish emits an aggregation's output rows; a projection has already
// emitted everything.
func (x *RowExec) Finish() error {
	if x.groups == nil {
		return nil
	}
	return x.groups.Finish(x.emit)
}
