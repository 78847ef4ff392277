package vec

import (
	"strconv"

	"pushdowndb/internal/expr"
	"pushdowndb/internal/sqlparse"
	"pushdowndb/internal/value"
)

// GroupBy mirrors the engine's reference group-by over a batch: contiguous
// worker spans each build a partial group map, partials merge in worker
// order (reproducing the sequential first-seen group order), and the
// aggregate states are the exact big.Float accumulators the row path
// uses. The speedup comes from rendering group keys straight from typed
// payloads and feeding aggregate inputs without per-row environment
// lookups. Returns the output column names and rows.
func GroupBy(b *Batch, sel *sqlparse.Select, workers int) ([]string, [][]value.Value, error) {
	itemExprs := make([]sqlparse.Expr, len(sel.Items))
	for i, it := range sel.Items {
		itemExprs[i] = it.Expr
	}
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

	type vgroup struct {
		keyVals []value.Value
		runner  *expr.AggRunner
	}
	type partial struct {
		groups map[string]*vgroup
		order  []string
	}
	sps := RowSpans(b.Len(), workers)
	parts := make([]partial, len(sps))
	err := RunSpans(sps, func(w int, sp Span) error {
		ev := expr.New()
		env := &rowEnv{b: b}
		p := partial{groups: map[string]*vgroup{}}
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
			// Map lookup keyed by string(buf) compiles without the string
			// allocation; the key is only materialized on first sight.
			gs, ok := p.groups[string(buf)]
			if !ok {
				k := string(buf)
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
				gs = &vgroup{keyVals: keyVals, runner: expr.NewAggRunner(ev, itemExprs)}
				p.groups[k] = gs
				p.order = append(p.order, k)
			}
			states := gs.runner.States()
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

	merged := map[string]*vgroup{}
	var order []string
	for _, p := range parts {
		for _, k := range p.order {
			g := p.groups[k]
			if m, ok := merged[k]; ok {
				if err := m.runner.Merge(g.runner); err != nil {
					return nil, nil, err
				}
			} else {
				merged[k] = g
				order = append(order, k)
			}
		}
	}

	cols := make([]string, len(sel.Items))
	for i, it := range sel.Items {
		cols[i] = it.Name()
	}
	rows := make([][]value.Value, 0, len(order))
	for _, k := range order {
		gs := merged[k]
		genv := &expr.GroupKeyEnv{Exprs: sel.GroupBy, Vals: gs.keyVals}
		row := make([]value.Value, len(sel.Items))
		for j, it := range sel.Items {
			v, err := gs.runner.Final(it.Expr, genv)
			if err != nil {
				return nil, nil, err
			}
			row[j] = v
		}
		rows = append(rows, row)
	}
	return cols, rows, nil
}
