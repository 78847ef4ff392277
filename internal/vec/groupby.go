package vec

import (
	"strconv"

	"pushdowndb/internal/expr"
	"pushdowndb/internal/sqlparse"
	"pushdowndb/internal/value"
)

// GroupBy mirrors the engine's reference group-by over a batch: contiguous
// worker spans each fill a partial expr.Groups table — the row path's own
// group table and exact big.Float accumulators — and the partials merge in
// worker order (reproducing the sequential first-seen group order). The
// speedup comes from rendering group keys straight from typed payloads and
// feeding aggregate inputs without per-row environment lookups. Returns
// the output column names and rows.
func GroupBy(b *Batch, sel *sqlparse.Select, workers int) ([]string, [][]value.Value, error) {
	itemExprs := sqlparse.ItemExprs(sel.Items)
	// Classify each group key: a resolvable bare column renders its key
	// bytes from the typed payload; anything else evaluates per row.
	type keySrc struct {
		col int // -1: evaluate expr
		e   sqlparse.Expr
	}
	keys := make([]keySrc, len(sel.GroupBy))
	for j, g := range sel.GroupBy {
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
	aggNodes := expr.CollectAggregates(itemExprs)
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
		p := expr.NewGroups(ev, sel.GroupBy, itemExprs)
		var buf []byte
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
				keyVals := make([]value.Value, len(keys))
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
	if err != nil {
		return nil, nil, err
	}

	merged := expr.NewGroups(expr.New(), sel.GroupBy, itemExprs)
	for _, p := range parts {
		if err := merged.Merge(p); err != nil {
			return nil, nil, err
		}
	}
	cols := make([]string, len(sel.Items))
	for i, it := range sel.Items {
		cols[i] = it.Name()
	}
	var rows [][]value.Value
	err = merged.Finish(func(row []value.Value) error {
		rows = append(rows, append([]value.Value(nil), row...))
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return cols, rows, nil
}
