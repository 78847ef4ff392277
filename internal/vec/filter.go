package vec

import (
	"slices"
	"strings"

	"pushdowndb/internal/expr"
	"pushdowndb/internal/sqlparse"
	"pushdowndb/internal/value"
)

// The filter kernel compiles a predicate tree into bitmap evaluators when
// every leaf is a supported shape (column/literal comparisons, BETWEEN,
// IN over literals, IS NULL, LIKE against a string literal, and AND/OR/NOT
// over those; Compiles). Compiled leaves cannot error, so evaluating them
// eagerly over the whole batch preserves the row path's short-circuit
// semantics exactly. Any other shape declines the whole predicate: the
// caller runs it on the row path (engine.Operators), which owns evaluation
// order and errors.

// node is one compiled predicate: three-valued logic as a (true, null)
// bitmap pair; false is the remainder.
type node struct {
	t, n *Bitmap
	a, b *node
	eval func(nd *node, lo, hi int)
}

// Filter evaluates pred over the batch and returns the kept row indexes,
// ascending — the selection the engine's reference filter would keep — and
// true; or nil and false when pred is not a shape the kernel compiles.
func Filter(b *Batch, pred sqlparse.Expr, workers int) ([]int, bool) {
	if !Compiles(pred) {
		return nil, false
	}
	root, post, ok := compilePred(pred, b)
	if !ok {
		return nil, false
	}
	_ = RunSpans(alignedSpans(b.Len(), workers), func(w int, sp Span) error {
		for _, nd := range post {
			nd.eval(nd, sp.Lo, sp.Hi)
		}
		return nil
	})
	return root.t.Indices(), true
}

// Compiles reports whether pred's shape is one Filter compiles, which needs
// no batch: a caller declines the rest before it builds one. Filter may
// still decline a predicate that passes, over the batch's columns (a name
// that does not resolve, a bare column that is not boolean).
func Compiles(pred sqlparse.Expr) bool {
	lits := func(es ...sqlparse.Expr) bool {
		return !slices.ContainsFunc(es, func(e sqlparse.Expr) bool { _, ok := e.(*sqlparse.Literal); return !ok })
	}
	col := func(e sqlparse.Expr) bool { _, ok := e.(*sqlparse.Column); return ok }
	switch t := pred.(type) {
	case *sqlparse.Binary:
		switch t.Op {
		case sqlparse.OpAnd, sqlparse.OpOr:
			return Compiles(t.L) && Compiles(t.R)
		case sqlparse.OpEq, sqlparse.OpNe, sqlparse.OpLt, sqlparse.OpLe, sqlparse.OpGt, sqlparse.OpGe:
			return (col(t.L) || lits(t.L)) && (col(t.R) || lits(t.R))
		}
	case *sqlparse.Unary:
		return t.Op == "NOT" && Compiles(t.X)
	case *sqlparse.Between:
		return col(t.X) && lits(t.Lo, t.Hi)
	case *sqlparse.In:
		return col(t.X) && lits(t.List...)
	case *sqlparse.IsNull:
		return col(t.X) || lits(t.X)
	case *sqlparse.Like:
		return col(t.X) && lits(t.Pattern) && t.Pattern.(*sqlparse.Literal).Val.Kind() == value.KindString
	case *sqlparse.Column:
		return true
	case *sqlparse.Literal:
		return t.Val.IsNull() || t.Val.Kind() == value.KindBool
	}
	return false
}

// compilePred compiles e, a shape Compiles accepts, into a bitmap-evaluator
// tree over b. The post slice lists nodes in evaluation (children-first)
// order. ok is false when a leaf does not compile over b's columns.
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
			if t.Op != sqlparse.OpAnd && t.Op != sqlparse.OpOr {
				return compileCmp(t, b, alloc)
			}
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
		case *sqlparse.Unary:
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
		}
		return compileBoolLiteral(e.(*sqlparse.Literal), alloc)
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

// compileOperand resolves e, a column or a literal; ok is false for a column
// b does not have.
func compileOperand(e sqlparse.Expr, b *Batch) (_ operand, ok bool) {
	if c, isCol := e.(*sqlparse.Column); isCol {
		// Qualifiers are ignored, as the row path's binding ignores them.
		if j := b.ColIndex(c.Name); j >= 0 {
			return operand{vec: b.Vecs[j]}, true
		}
		return operand{}, false
	}
	return operand{lit: e.(*sqlparse.Literal).Val}, true
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
	lo, hi := t.Lo.(*sqlparse.Literal), t.Hi.(*sqlparse.Literal)
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
		lits[i] = item.(*sqlparse.Literal).Val
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
	pattern := t.Pattern.(*sqlparse.Literal).Val.AsString()
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
// Non-boolean bare columns are declined: the row path owns their behavior.
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

// compileBoolLiteral compiles a NULL or boolean literal used as a predicate.
func compileBoolLiteral(t *sqlparse.Literal, alloc func(func(*node, int, int)) *node) *node {
	if t.Val.IsNull() {
		return alloc(evalAllNull)
	}
	hold := t.Val.AsBool()
	return alloc(func(nd *node, lo, hi int) {
		if hold {
			for i := lo; i < hi; i++ {
				nd.t.Set(i)
			}
		}
	})
}
