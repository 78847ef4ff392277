package vec

import (
	"strings"

	"pushdowndb/internal/expr"
	"pushdowndb/internal/sqlparse"
	"pushdowndb/internal/value"
)

// The filter kernel compiles a predicate tree into bitmap evaluators when
// every leaf is a supported shape (column/literal comparisons, BETWEEN,
// IN over literals, IS NULL, LIKE, and AND/OR/NOT over those). Compiled
// leaves cannot error, so evaluating them eagerly over the whole batch
// preserves the row path's short-circuit semantics exactly. Any other
// shape makes the whole predicate fall back to per-row evaluation with
// the shared expression interpreter, which reproduces the row path's
// behavior — including its errors — verbatim.

// node is one compiled predicate: three-valued logic as a (true, null)
// bitmap pair; false is the remainder.
type node struct {
	t, n *Bitmap
	a, b *node
	eval func(nd *node, lo, hi int)
}

// Filter evaluates pred over the batch and returns the kept row indexes,
// ascending — the selection the engine's reference filter would keep.
func Filter(b *Batch, pred sqlparse.Expr, workers int) ([]int, error) {
	n := b.Len()
	if root, post, ok := compilePred(pred, b); ok {
		_ = RunSpans(alignedSpans(n, workers), func(w int, sp Span) error {
			for _, nd := range post {
				nd.eval(nd, sp.Lo, sp.Hi)
			}
			return nil
		})
		return root.t.Indices(), nil
	}
	// Whole-predicate fallback: the same spans, evaluator and first-error
	// contract as the reference filter (the lowest erroring row's error).
	sps := RowSpans(n, workers)
	kept := make([][]int, len(sps))
	err := RunSpans(sps, func(w int, sp Span) error {
		ev := expr.New()
		env := &rowEnv{b: b}
		for i := sp.Lo; i < sp.Hi; i++ {
			env.i = i
			ok, err := ev.EvalBool(pred, env)
			if err != nil {
				return err
			}
			if ok {
				kept[w] = append(kept[w], i)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]int, 0, n)
	for _, k := range kept {
		out = append(out, k...)
	}
	return out, nil
}

// compilePred compiles e into a bitmap-evaluator tree over b. The post
// slice lists nodes in evaluation (children-first) order. ok is false
// when any part of the tree is not a supported kernel shape.
func compilePred(e sqlparse.Expr, b *Batch) (root *node, post []*node, ok bool) {
	var build func(e sqlparse.Expr) *node
	alloc := func(eval func(nd *node, lo, hi int)) *node {
		nd := &node{t: NewBitmap(b.Len()), n: NewBitmap(b.Len()), eval: eval}
		post = append(post, nd)
		return nd
	}
	build = func(e sqlparse.Expr) *node {
		switch t := e.(type) {
		case *sqlparse.Binary:
			switch t.Op {
			case sqlparse.OpAnd, sqlparse.OpOr:
				a := build(t.L)
				if a == nil {
					return nil
				}
				c := build(t.R)
				if c == nil {
					return nil
				}
				isAnd := t.Op == sqlparse.OpAnd
				nd := alloc(func(nd *node, lo, hi int) { evalLogic(nd, lo, hi, isAnd) })
				nd.a, nd.b = a, c
				return nd
			case sqlparse.OpEq, sqlparse.OpNe, sqlparse.OpLt, sqlparse.OpLe, sqlparse.OpGt, sqlparse.OpGe:
				return compileCmp(t, b, alloc)
			}
			return nil
		case *sqlparse.Unary:
			if t.Op != "NOT" {
				return nil
			}
			a := build(t.X)
			if a == nil {
				return nil
			}
			nd := alloc(evalNot)
			nd.a = a
			return nd
		case *sqlparse.Between:
			return compileBetween(t, b, alloc)
		case *sqlparse.In:
			return compileIn(t, b, alloc)
		case *sqlparse.IsNull:
			return compileIsNull(t, b, alloc)
		case *sqlparse.Like:
			return compileLike(t, b, alloc)
		case *sqlparse.Column:
			return compileBoolColumn(t, b, alloc)
		case *sqlparse.Literal:
			return compileBoolLiteral(t, alloc)
		}
		return nil
	}
	root = build(e)
	return root, post, root != nil
}

// evalLogic combines two children with Kleene AND/OR at word granularity.
// Operands are predicate results, so their domain is {true, false, null}
// — exactly the domain the row path's AND/OR sees for compilable shapes.
func evalLogic(nd *node, lo, hi int, isAnd bool) {
	lw, hw := lo>>6, (hi+63)>>6
	at, an := nd.a.t.words, nd.a.n.words
	bt, bn := nd.b.t.words, nd.b.n.words
	t, n := nd.t.words, nd.n.words
	for w := lw; w < hw; w++ {
		var tw, fw uint64
		if isAnd {
			tw = at[w] & bt[w]
			fw = ^(at[w] | an[w]) | ^(bt[w] | bn[w])
		} else {
			tw = at[w] | bt[w]
			fw = ^(at[w] | an[w]) & ^(bt[w] | bn[w])
		}
		t[w] = tw
		n[w] = ^(tw | fw)
	}
	if hi == nd.t.n {
		nd.t.maskTail()
		nd.n.maskTail()
	}
}

// evalNot flips true and false, keeping null.
func evalNot(nd *node, lo, hi int) {
	lw, hw := lo>>6, (hi+63)>>6
	at, an := nd.a.t.words, nd.a.n.words
	for w := lw; w < hw; w++ {
		nd.t.words[w] = ^(at[w] | an[w])
		nd.n.words[w] = an[w]
	}
	if hi == nd.t.n {
		nd.t.maskTail()
		nd.n.maskTail()
	}
}

// operand is one side of a comparison: a column vector or a literal.
type operand struct {
	vec *Vector
	lit value.Value
}

func compileOperand(e sqlparse.Expr, b *Batch) (operand, bool) {
	switch t := e.(type) {
	case *sqlparse.Literal:
		return operand{lit: t.Val}, true
	case *sqlparse.Column:
		// Qualifiers are ignored, as in the row path's Env lookup.
		j := b.ColIndex(t.Name)
		if j < 0 {
			return operand{}, false
		}
		return operand{vec: b.Vecs[j]}, true
	}
	return operand{}, false
}

func opHolds(op sqlparse.BinaryOp, c int) bool {
	switch op {
	case sqlparse.OpEq:
		return c == 0
	case sqlparse.OpNe:
		return c != 0
	case sqlparse.OpLt:
		return c < 0
	case sqlparse.OpLe:
		return c <= 0
	case sqlparse.OpGt:
		return c > 0
	case sqlparse.OpGe:
		return c >= 0
	}
	return false
}

func compileCmp(t *sqlparse.Binary, b *Batch, alloc func(func(*node, int, int)) *node) *node {
	l, lok := compileOperand(t.L, b)
	r, rok := compileOperand(t.R, b)
	if !lok || !rok {
		return nil
	}
	op := t.Op
	switch {
	case l.vec == nil && r.vec == nil: // literal vs literal
		if l.lit.IsNull() || r.lit.IsNull() {
			return alloc(evalAllNull)
		}
		hold := opHolds(op, value.Compare(l.lit, r.lit))
		return alloc(func(nd *node, lo, hi int) {
			if hold {
				for i := lo; i < hi; i++ {
					nd.t.Set(i)
				}
			}
		})
	case l.vec != nil && r.vec != nil: // column vs column
		lv, rv := l.vec, r.vec
		return alloc(func(nd *node, lo, hi int) {
			for i := lo; i < hi; i++ {
				if lv.IsNull(i) || rv.IsNull(i) {
					nd.n.Set(i)
					continue
				}
				if opHolds(op, value.Compare(lv.Value(i), rv.Value(i))) {
					nd.t.Set(i)
				}
			}
		})
	case l.vec != nil: // column vs literal
		if r.lit.IsNull() {
			return alloc(evalAllNull)
		}
		cmp := cmpAgainst(l.vec, r.lit)
		v := l.vec
		return alloc(func(nd *node, lo, hi int) {
			for i := lo; i < hi; i++ {
				if v.IsNull(i) {
					nd.n.Set(i)
					continue
				}
				if opHolds(op, cmp(i)) {
					nd.t.Set(i)
				}
			}
		})
	default: // literal vs column
		if l.lit.IsNull() {
			return alloc(evalAllNull)
		}
		v, lit := r.vec, l.lit
		return alloc(func(nd *node, lo, hi int) {
			for i := lo; i < hi; i++ {
				if v.IsNull(i) {
					nd.n.Set(i)
					continue
				}
				if opHolds(op, value.Compare(lit, v.Value(i))) {
					nd.t.Set(i)
				}
			}
		})
	}
}

func evalAllNull(nd *node, lo, hi int) {
	for i := lo; i < hi; i++ {
		nd.n.Set(i)
	}
}

// cmpAgainst builds a per-row comparator returning value.Compare(row, lit)
// for non-NULL rows. Typed fast paths replicate value.Compare's exact
// branch for that kind pairing; everything else reconstructs the value and
// calls value.Compare itself.
func cmpAgainst(v *Vector, lit value.Value) func(i int) int {
	if v.Boxed == nil && v.Kind != value.KindNull {
		switch v.Kind {
		case value.KindInt, value.KindBool, value.KindDate:
			if lit.Kind() != value.KindString {
				// numeric vs numeric: value.CompareFloat over Num() coercions.
				lf, _ := lit.Num()
				ints := v.Ints
				return func(i int) int { return value.CompareFloat(float64(ints[i]), lf) }
			}
			if v.Kind == value.KindDate {
				// DATE vs string literal: value.Compare compares the rendered
				// forms. When the literal is a canonical YYYY-MM-DD and the
				// row's year has four digits, that equals comparing days.
				litS := lit.AsString()
				if value.LooksLikeDate(litS) {
					if d, err := value.ParseDate(litS); err == nil && value.FormatDays(d.Days()) == litS {
						litDays := d.Days()
						ints := v.Ints
						return func(i int) int {
							days := ints[i]
							if value.FourDigitYear(days) {
								switch {
								case days < litDays:
									return -1
								case days > litDays:
									return 1
								}
								return 0
							}
							return value.Compare(value.Date(days), lit)
						}
					}
				}
				break // generic
			}
			// INT/BOOL vs string: numeric when the string parses, else
			// rendered-form string comparison (generic covers the latter).
			if lf, ok := value.CoerceNum(lit); ok {
				ints := v.Ints
				return func(i int) int { return value.CompareFloat(float64(ints[i]), lf) }
			}
		case value.KindFloat:
			if lit.Kind() != value.KindString {
				lf, _ := lit.Num()
				floats := v.Floats
				return func(i int) int { return value.CompareFloat(floats[i], lf) }
			}
			if lf, ok := value.CoerceNum(lit); ok {
				floats := v.Floats
				return func(i int) int { return value.CompareFloat(floats[i], lf) }
			}
		case value.KindString:
			strs := v.Strs
			switch lit.Kind() {
			case value.KindString:
				litS := lit.AsString()
				lf, litOk := value.CoerceNum(lit)
				if !litOk {
					// Neither side can compare numerically: raw string order.
					return func(i int) int { return strings.Compare(strs[i], litS) }
				}
				return func(i int) int {
					if rf, ok := value.CoerceNum(value.Str(strs[i])); ok {
						return value.CompareFloat(rf, lf)
					}
					return strings.Compare(strs[i], litS)
				}
			case value.KindDate:
				// string vs DATE: rendered-form comparison, no parsing.
				litS := lit.String()
				return func(i int) int { return strings.Compare(strs[i], litS) }
			default: // INT, FLOAT, BOOL
				lf, _ := lit.Num()
				litS := lit.String()
				return func(i int) int {
					if rf, ok := value.CoerceNum(value.Str(strs[i])); ok {
						return value.CompareFloat(rf, lf)
					}
					return strings.Compare(strs[i], litS)
				}
			}
		}
	}
	return func(i int) int { return value.Compare(v.Value(i), lit) }
}

func compileBetween(t *sqlparse.Between, b *Batch, alloc func(func(*node, int, int)) *node) *node {
	x, ok := compileOperand(t.X, b)
	if !ok || x.vec == nil {
		return nil
	}
	lo, lok := t.Lo.(*sqlparse.Literal)
	hi, hok := t.Hi.(*sqlparse.Literal)
	if !lok || !hok {
		return nil
	}
	if lo.Val.IsNull() || hi.Val.IsNull() {
		return alloc(evalAllNull)
	}
	cmpLo := cmpAgainst(x.vec, lo.Val)
	cmpHi := cmpAgainst(x.vec, hi.Val)
	v, not := x.vec, t.Not
	return alloc(func(nd *node, l, h int) {
		for i := l; i < h; i++ {
			if v.IsNull(i) {
				nd.n.Set(i)
				continue
			}
			in := cmpLo(i) >= 0 && cmpHi(i) <= 0
			if not {
				in = !in
			}
			if in {
				nd.t.Set(i)
			}
		}
	})
}

func compileIn(t *sqlparse.In, b *Batch, alloc func(func(*node, int, int)) *node) *node {
	x, ok := compileOperand(t.X, b)
	if !ok || x.vec == nil {
		return nil
	}
	lits := make([]value.Value, len(t.List))
	for i, item := range t.List {
		l, isLit := item.(*sqlparse.Literal)
		if !isLit {
			return nil
		}
		lits[i] = l.Val
	}
	v, not := x.vec, t.Not
	return alloc(func(nd *node, lo, hi int) {
		for i := lo; i < hi; i++ {
			if v.IsNull(i) {
				nd.n.Set(i)
				continue
			}
			xv := v.Value(i)
			found := false
			for _, l := range lits {
				if value.Equal(xv, l) {
					found = true
					break
				}
			}
			if not {
				found = !found
			}
			if found {
				nd.t.Set(i)
			}
		}
	})
}

func compileIsNull(t *sqlparse.IsNull, b *Batch, alloc func(func(*node, int, int)) *node) *node {
	x, ok := compileOperand(t.X, b)
	if !ok {
		return nil
	}
	if x.vec == nil { // IS NULL over a literal: constant
		hold := x.lit.IsNull() != t.Not
		return alloc(func(nd *node, lo, hi int) {
			if hold {
				for i := lo; i < hi; i++ {
					nd.t.Set(i)
				}
			}
		})
	}
	v, not := x.vec, t.Not
	return alloc(func(nd *node, lo, hi int) {
		for i := lo; i < hi; i++ {
			if v.IsNull(i) != not {
				nd.t.Set(i)
			}
		}
	})
}

func compileLike(t *sqlparse.Like, b *Batch, alloc func(func(*node, int, int)) *node) *node {
	x, ok := compileOperand(t.X, b)
	if !ok || x.vec == nil {
		return nil
	}
	p, isLit := t.Pattern.(*sqlparse.Literal)
	if !isLit || p.Val.Kind() != value.KindString {
		return nil
	}
	pattern := p.Val.AsString()
	v, not := x.vec, t.Not
	if v.typed(value.KindString) {
		strs := v.Strs
		return alloc(func(nd *node, lo, hi int) {
			for i := lo; i < hi; i++ {
				if v.IsNull(i) {
					nd.n.Set(i)
					continue
				}
				if expr.LikeMatch(pattern, strs[i]) != not {
					nd.t.Set(i)
				}
			}
		})
	}
	return alloc(func(nd *node, lo, hi int) {
		for i := lo; i < hi; i++ {
			if v.IsNull(i) {
				nd.n.Set(i)
				continue
			}
			if expr.LikeMatch(pattern, v.Value(i).String()) != not {
				nd.t.Set(i)
			}
		}
	})
}

// compileBoolColumn compiles a bare boolean column used as a predicate.
// Non-boolean bare columns are left to the fallback, which reproduces the
// row path's behavior for those shapes.
func compileBoolColumn(t *sqlparse.Column, b *Batch, alloc func(func(*node, int, int)) *node) *node {
	j := b.ColIndex(t.Name)
	if j < 0 {
		return nil
	}
	v := b.Vecs[j]
	if v.Boxed == nil && v.Kind == value.KindNull {
		return alloc(evalAllNull)
	}
	if !v.typed(value.KindBool) {
		return nil
	}
	ints := v.Ints
	return alloc(func(nd *node, lo, hi int) {
		for i := lo; i < hi; i++ {
			if v.IsNull(i) {
				nd.n.Set(i)
			} else if ints[i] != 0 {
				nd.t.Set(i)
			}
		}
	})
}

func compileBoolLiteral(t *sqlparse.Literal, alloc func(func(*node, int, int)) *node) *node {
	switch t.Val.Kind() {
	case value.KindNull:
		return alloc(evalAllNull)
	case value.KindBool:
		hold := t.Val.AsBool()
		return alloc(func(nd *node, lo, hi int) {
			if hold {
				for i := lo; i < hi; i++ {
					nd.t.Set(i)
				}
			}
		})
	}
	return nil
}
