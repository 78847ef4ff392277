package vec

import (
	"pushdowndb/internal/expr"
	"pushdowndb/internal/sqlparse"
	"pushdowndb/internal/value"
)

// Project evaluates the select items of sel over the batch. Bare column
// items and * share the input vectors without copying; anything else
// evaluates per row with the shared interpreter, in the row path's
// row-major order so the first error (if any) is the same one the
// engine's reference projection would surface.
func Project(b *Batch, sel *sqlparse.Select, workers int) (*Batch, error) {
	var cols []string
	var vecs []*Vector
	type pending struct {
		out int // index into vecs
		e   sqlparse.Expr
	}
	var evals []pending
	for _, it := range sel.Items {
		if _, isStar := it.Expr.(*sqlparse.Star); isStar {
			cols = append(cols, b.Cols...)
			vecs = append(vecs, b.Vecs...)
			continue
		}
		cols = append(cols, it.Name())
		if c, ok := it.Expr.(*sqlparse.Column); ok {
			if j := b.ColIndex(c.Name); j >= 0 {
				vecs = append(vecs, b.Vecs[j])
				continue
			}
		}
		vecs = append(vecs, nil)
		evals = append(evals, pending{out: len(vecs) - 1, e: it.Expr})
	}
	if len(evals) > 0 {
		n := b.Len()
		colVals := make([][]value.Value, len(evals))
		for k := range colVals {
			colVals[k] = make([]value.Value, n)
		}
		err := RunSpans(RowSpans(n, workers), func(w int, sp Span) error {
			ev := expr.New()
			env := &rowEnv{b: b}
			for i := sp.Lo; i < sp.Hi; i++ {
				env.i = i
				for k := range evals {
					v, err := ev.Eval(evals[k].e, env)
					if err != nil {
						return err
					}
					colVals[k][i] = v
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		for k, p := range evals {
			vecs[p.out] = FromValues(colVals[k])
		}
	}
	out := NewBatch(cols, vecs)
	out.n = b.Len()
	return out, nil
}
