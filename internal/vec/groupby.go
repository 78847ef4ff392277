package vec

import (
	"strconv"

	"pushdowndb/internal/arena"
	"pushdowndb/internal/expr"
	"pushdowndb/internal/sqlparse"
	"pushdowndb/internal/value"
)

// GroupBy mirrors the engine's reference group-by over a batch: a fresh
// group table, the batch accumulated into it, the table finished. Returns
// the output column names and rows.
func GroupBy(b *Batch, sel *sqlparse.Select, workers int) ([]string, [][]value.Value, error) {
	t := expr.NewGroups(expr.New(), sel.GroupBy, sqlparse.ItemExprs(sel.Items))
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
// from rendering group keys straight from typed payloads and feeding
// aggregate inputs without per-row environment lookups.
func Accumulate(t *expr.Groups, b *Batch, workers int) error {
	// Classify each group key: a resolvable bare column renders its key
	// bytes from the typed payload; anything else evaluates per row.
	type keySrc struct {
		col int // -1: evaluate expr
		e   sqlparse.Expr
	}
	keys := make([]keySrc, len(t.Keys()))
	for j, g := range t.Keys() {
		keys[j] = keySrc{col: -1, e: g}
		if c, ok := g.(*sqlparse.Column); ok {
			if idx := b.ColIndex(c.Name); idx >= 0 {
				keys[j].col = idx
			}
		}
	}
	// Classify each aggregate argument the same way. The classification is
	// over the aggregate nodes CollectAggregates finds, in the same order
	// every runner's States() uses.
	aggNodes := t.Aggregates()
	type aggSrc struct {
		star bool
		col  int // -1: evaluate expr
		e    sqlparse.Expr
	}
	aggSrcs := make([]aggSrc, len(aggNodes))
	for k, a := range aggNodes {
		if _, isStar := a.X.(*sqlparse.Star); isStar {
			aggSrcs[k] = aggSrc{star: true}
			continue
		}
		aggSrcs[k] = aggSrc{col: -1, e: a.X}
		if c, ok := a.X.(*sqlparse.Column); ok {
			if idx := b.ColIndex(c.Name); idx >= 0 {
				aggSrcs[k].col = idx
			}
		}
	}

	sps := RowSpans(b.Len(), workers)
	parts := make([]*expr.Groups, len(sps))
	err := RunSpans(sps, func(w int, sp Span) error {
		ev := expr.New()
		env := &rowEnv{b: b}
		p := t
		if len(sps) > 1 {
			p = t.Partial()
		}
		var buf []byte
		keyVals := make([]value.Value, len(keys)) // Insert copies it
		var memoDays int64
		var memoStr string
		memoOK := false
		for i := sp.Lo; i < sp.Hi; i++ {
			env.i = i
			buf = buf[:0]
			for j := range keys {
				if c := keys[j].col; c >= 0 {
					v := b.Vecs[c]
					if v.Boxed == nil && !v.IsNull(i) {
						switch v.Kind {
						case value.KindInt:
							buf = strconv.AppendInt(buf, v.Ints[i], 10)
						case value.KindFloat:
							buf = strconv.AppendFloat(buf, v.Floats[i], 'f', -1, 64)
						case value.KindString:
							buf = append(buf, v.Strs[i]...)
						case value.KindBool:
							if v.Ints[i] != 0 {
								buf = append(buf, "true"...)
							} else {
								buf = append(buf, "false"...)
							}
						case value.KindDate:
							if !memoOK || v.Ints[i] != memoDays {
								memoDays, memoStr, memoOK = v.Ints[i], value.FormatDays(v.Ints[i]), true
							}
							buf = append(buf, memoStr...)
						}
					} else if v.Boxed != nil {
						buf = append(buf, v.Boxed[i].String()...)
					}
					// NULL renders as the empty string: append nothing.
				} else {
					v, err := ev.Eval(keys[j].e, env)
					if err != nil {
						return err
					}
					buf = append(buf, v.String()...)
				}
				buf = append(buf, 0)
			}
			gs := p.Find(buf)
			if gs == nil {
				for j := range keys {
					if c := keys[j].col; c >= 0 {
						keyVals[j] = b.Vecs[c].Value(i)
					} else {
						v, err := ev.Eval(keys[j].e, env)
						if err != nil {
							return err
						}
						keyVals[j] = v
					}
				}
				gs = p.Insert(buf, keyVals)
			}
			states := gs.States
			for a := range aggSrcs {
				switch {
				case aggSrcs[a].star:
					if err := states[a].Add(value.Int(1)); err != nil {
						return err
					}
				case aggSrcs[a].col >= 0:
					if err := states[a].Add(b.Vecs[aggSrcs[a].col].Value(i)); err != nil {
						return err
					}
				default:
					v, err := ev.Eval(aggSrcs[a].e, env)
					if err != nil {
						return err
					}
					if err := states[a].Add(v); err != nil {
						return err
					}
				}
			}
		}
		parts[w] = p
		return nil
	})
	if err != nil || len(sps) == 1 {
		return err
	}
	for _, p := range parts {
		if err := t.Merge(p); err != nil {
			return err
		}
	}
	return nil
}
