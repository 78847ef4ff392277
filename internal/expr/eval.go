// Package expr evaluates sqlparse expression trees over rows and runs the
// row-at-a-time SELECT block built on them. It is shared by the S3 Select
// engine (storage-side evaluation) and by PushdownDB's local operators
// (server-side evaluation), so the two sides agree exactly on the dialect's
// semantics: Evaluator is the one expression interpreter, AggState the one
// (order-independent) accumulator, Groups the one group table, and RowExec
// the one WHERE → project | aggregate executor both sides feed rows to.
package expr

import (
	"encoding/hex"
	"fmt"
	"math"
	"strings"

	"pushdowndb/internal/sqlparse"
	"pushdowndb/internal/value"
)

// Env resolves column references during evaluation.
type Env interface {
	// Lookup returns the value of the named column. Qualifier may be empty.
	Lookup(qualifier, name string) (value.Value, bool)
}

// GroupKeyEnv resolves bare group-by columns to one group's key values
// while its aggregates finalize (so SELECT g, SUM(x) ... GROUP BY g can
// output g).
type GroupKeyEnv struct {
	Exprs []sqlparse.Expr
	Vals  []value.Value
}

// Lookup implements Env.
func (g *GroupKeyEnv) Lookup(_, name string) (value.Value, bool) {
	for i, e := range g.Exprs {
		if c, ok := e.(*sqlparse.Column); ok && sqlparse.SameName(c.Name, name) {
			return g.Vals[i], true
		}
	}
	return value.Null(), false
}

// MapEnv is a simple Env backed by a map (tests, constant folding).
type MapEnv map[string]value.Value

// Lookup implements Env.
func (m MapEnv) Lookup(_, name string) (value.Value, bool) {
	v, ok := m[sqlparse.NameKey(name)]
	return v, ok
}

// Evaluator evaluates expressions, caching per-node compilations (LIKE
// patterns, Bloom filter bit arrays) across rows. A nil *Evaluator is not
// usable; construct with New.
type Evaluator struct {
	likeCache  map[*sqlparse.Like]*likeMatcher
	bloomCache map[*sqlparse.Call][]byte
	// aggValues supplies finalized aggregate results while Groups.Finish
	// evaluates a select item that wraps aggregates (e.g. 100 * SUM(a) /
	// SUM(b)).
	aggValues map[*sqlparse.Aggregate]value.Value
}

// New returns a fresh Evaluator.
func New() *Evaluator {
	return &Evaluator{
		likeCache:  map[*sqlparse.Like]*likeMatcher{},
		bloomCache: map[*sqlparse.Call][]byte{},
	}
}

// Eval computes e over env.
func (ev *Evaluator) Eval(e sqlparse.Expr, env Env) (value.Value, error) {
	switch t := e.(type) {
	case *sqlparse.Literal:
		return t.Val, nil
	case *sqlparse.Column:
		v, ok := env.Lookup(t.Qualifier, t.Name)
		if !ok {
			return value.Null(), fmt.Errorf("expr: unknown column %s", t.String())
		}
		return v, nil
	case *sqlparse.Star:
		return value.Null(), fmt.Errorf("expr: * is not a scalar expression")
	case *sqlparse.Binary:
		return ev.evalBinary(t, env)
	case *sqlparse.Unary:
		return ev.evalUnary(t, env)
	case *sqlparse.IsNull:
		v, err := ev.Eval(t.X, env)
		if err != nil {
			return value.Null(), err
		}
		if t.Not {
			return value.Bool(!v.IsNull()), nil
		}
		return value.Bool(v.IsNull()), nil
	case *sqlparse.Between:
		x, err := ev.Eval(t.X, env)
		if err != nil {
			return value.Null(), err
		}
		lo, err := ev.Eval(t.Lo, env)
		if err != nil {
			return value.Null(), err
		}
		hi, err := ev.Eval(t.Hi, env)
		if err != nil {
			return value.Null(), err
		}
		if x.IsNull() || lo.IsNull() || hi.IsNull() {
			return value.Null(), nil
		}
		in := value.Compare(x, lo) >= 0 && value.Compare(x, hi) <= 0
		if t.Not {
			in = !in
		}
		return value.Bool(in), nil
	case *sqlparse.In:
		x, err := ev.Eval(t.X, env)
		if err != nil {
			return value.Null(), err
		}
		if x.IsNull() {
			return value.Null(), nil
		}
		found := false
		for _, item := range t.List {
			v, err := ev.Eval(item, env)
			if err != nil {
				return value.Null(), err
			}
			if value.Equal(x, v) {
				found = true
				break
			}
		}
		if t.Not {
			found = !found
		}
		return value.Bool(found), nil
	case *sqlparse.Like:
		return ev.evalLike(t, env)
	case *sqlparse.Case:
		for _, w := range t.Whens {
			c, err := ev.Eval(w.Cond, env)
			if err != nil {
				return value.Null(), err
			}
			if value.Truthy(c) {
				return ev.Eval(w.Result, env)
			}
		}
		if t.Else != nil {
			return ev.Eval(t.Else, env)
		}
		return value.Null(), nil
	case *sqlparse.Cast:
		v, err := ev.Eval(t.X, env)
		if err != nil {
			return value.Null(), err
		}
		switch t.To {
		case value.KindInt:
			return value.CastInt(v)
		case value.KindFloat:
			return value.CastFloat(v)
		case value.KindString:
			return value.CastString(v), nil
		case value.KindDate:
			return value.CastDate(v)
		case value.KindBool:
			if v.Kind() == value.KindBool || v.IsNull() {
				return v, nil
			}
			return value.Null(), fmt.Errorf("expr: cannot CAST %s AS BOOL", v.Kind())
		}
		return value.Null(), fmt.Errorf("expr: unsupported cast")
	case *sqlparse.Call:
		return ev.evalCall(t, env)
	case *sqlparse.Aggregate:
		if v, ok := ev.aggValues[t]; ok {
			return v, nil
		}
		return value.Null(), fmt.Errorf("expr: aggregate %s evaluated outside aggregation", t.String())
	default:
		return value.Null(), fmt.Errorf("expr: unsupported node %T", e)
	}
}

// EvalBool evaluates e and interprets the result as a predicate.
func (ev *Evaluator) EvalBool(e sqlparse.Expr, env Env) (bool, error) {
	v, err := ev.Eval(e, env)
	if err != nil {
		return false, err
	}
	return value.Truthy(v), nil
}

func (ev *Evaluator) evalUnary(t *sqlparse.Unary, env Env) (value.Value, error) {
	v, err := ev.Eval(t.X, env)
	if err != nil {
		return value.Null(), err
	}
	switch t.Op {
	case "NOT":
		if v.IsNull() {
			return value.Null(), nil
		}
		if v.Kind() != value.KindBool {
			return value.Null(), fmt.Errorf("expr: NOT applied to %s", v.Kind())
		}
		return value.Bool(!v.AsBool()), nil
	case "-":
		if v.Kind() == value.KindString {
			// CSV text negates as the number arithmetic reads it as: storage's
			// -x over a cell agrees with the server's over the typed cell.
			if i, ok := intOperand(v); ok {
				return value.Int(-i), nil
			}
			if f, ok := numOperand(v); ok {
				return value.Float(-f), nil
			}
		}
		switch v.Kind() {
		case value.KindNull:
			return v, nil
		case value.KindInt:
			return value.Int(-v.AsInt()), nil
		case value.KindFloat:
			return value.Float(-v.AsFloat()), nil
		}
		return value.Null(), fmt.Errorf("expr: unary minus applied to %s", v.Kind())
	}
	return value.Null(), fmt.Errorf("expr: unknown unary op %q", t.Op)
}

func (ev *Evaluator) evalBinary(t *sqlparse.Binary, env Env) (value.Value, error) {
	// AND/OR get three-valued logic with short-circuiting.
	switch t.Op {
	case sqlparse.OpAnd:
		l, err := ev.Eval(t.L, env)
		if err != nil {
			return value.Null(), err
		}
		if l.Kind() == value.KindBool && !l.AsBool() {
			return value.Bool(false), nil
		}
		r, err := ev.Eval(t.R, env)
		if err != nil {
			return value.Null(), err
		}
		if r.Kind() == value.KindBool && !r.AsBool() {
			return value.Bool(false), nil
		}
		if l.IsNull() || r.IsNull() {
			return value.Null(), nil
		}
		return value.Bool(l.AsBool() && r.AsBool()), nil
	case sqlparse.OpOr:
		l, err := ev.Eval(t.L, env)
		if err != nil {
			return value.Null(), err
		}
		if l.Kind() == value.KindBool && l.AsBool() {
			return value.Bool(true), nil
		}
		r, err := ev.Eval(t.R, env)
		if err != nil {
			return value.Null(), err
		}
		if r.Kind() == value.KindBool && r.AsBool() {
			return value.Bool(true), nil
		}
		if l.IsNull() || r.IsNull() {
			return value.Null(), nil
		}
		return value.Bool(l.AsBool() || r.AsBool()), nil
	}

	l, err := ev.Eval(t.L, env)
	if err != nil {
		return value.Null(), err
	}
	r, err := ev.Eval(t.R, env)
	if err != nil {
		return value.Null(), err
	}
	switch t.Op {
	case sqlparse.OpEq, sqlparse.OpNe, sqlparse.OpLt, sqlparse.OpLe, sqlparse.OpGt, sqlparse.OpGe:
		if l.IsNull() || r.IsNull() {
			return value.Null(), nil
		}
		c := value.Compare(l, r)
		var b bool
		switch t.Op {
		case sqlparse.OpEq:
			b = c == 0
		case sqlparse.OpNe:
			b = c != 0
		case sqlparse.OpLt:
			b = c < 0
		case sqlparse.OpLe:
			b = c <= 0
		case sqlparse.OpGt:
			b = c > 0
		case sqlparse.OpGe:
			b = c >= 0
		}
		return value.Bool(b), nil
	case sqlparse.OpConcat:
		if l.IsNull() || r.IsNull() {
			return value.Null(), nil
		}
		return value.Str(l.String() + r.String()), nil
	default:
		return evalArith(t.Op, l, r)
	}
}

func evalArith(op sqlparse.BinaryOp, l, r value.Value) (value.Value, error) {
	if l.IsNull() || r.IsNull() {
		return value.Null(), nil
	}
	// Integer arithmetic stays integral when both sides are integral
	// (modulo in the Bloom hash depends on this).
	li, lok := intOperand(l)
	ri, rok := intOperand(r)
	if lok && rok {
		switch op {
		case sqlparse.OpAdd:
			return value.Int(li + ri), nil
		case sqlparse.OpSub:
			return value.Int(li - ri), nil
		case sqlparse.OpMul:
			return value.Int(li * ri), nil
		case sqlparse.OpDiv:
			if ri == 0 {
				return value.Null(), fmt.Errorf("expr: division by zero")
			}
			return value.Int(li / ri), nil
		case sqlparse.OpMod:
			if ri == 0 {
				return value.Null(), fmt.Errorf("expr: modulo by zero")
			}
			m := li % ri
			if m < 0 {
				m += ri // SQL-style non-negative modulo for positive divisor
			}
			return value.Int(m), nil
		}
	}
	lf, lok2 := numOperand(l)
	rf, rok2 := numOperand(r)
	if !lok2 || !rok2 {
		return value.Null(), fmt.Errorf("expr: arithmetic on non-numeric %s and %s", l.Kind(), r.Kind())
	}
	switch op {
	case sqlparse.OpAdd:
		return value.Float(lf + rf), nil
	case sqlparse.OpSub:
		return value.Float(lf - rf), nil
	case sqlparse.OpMul:
		return value.Float(lf * rf), nil
	case sqlparse.OpDiv:
		if rf == 0 {
			return value.Null(), fmt.Errorf("expr: division by zero")
		}
		return value.Float(lf / rf), nil
	case sqlparse.OpMod:
		if rf == 0 {
			return value.Null(), fmt.Errorf("expr: modulo by zero")
		}
		return value.Float(math.Mod(lf, rf)), nil
	}
	return value.Null(), fmt.Errorf("expr: unknown arithmetic op")
}

// intOperand and numOperand are arithmetic's reading of an operand. CSV
// text counts as the number it parses to, trimmed, under value's one
// parsing rule: an integer when written as one, so that keys stay integral.
func intOperand(v value.Value) (int64, bool) {
	if v.Kind() == value.KindString {
		v, _ = value.ParseNum(strings.TrimSpace(v.AsString()))
	}
	if v.Kind() != value.KindInt {
		return 0, false
	}
	return v.AsInt(), true
}

func numOperand(v value.Value) (float64, bool) {
	if v.Kind() == value.KindString {
		f, err := value.CastFloat(v)
		if err != nil {
			return 0, false
		}
		return f.AsFloat(), true
	}
	return v.Num()
}

func (ev *Evaluator) evalLike(t *sqlparse.Like, env Env) (value.Value, error) {
	x, err := ev.Eval(t.X, env)
	if err != nil {
		return value.Null(), err
	}
	if x.IsNull() {
		return value.Null(), nil
	}
	m := ev.likeCache[t]
	if m == nil {
		p, err := ev.Eval(t.Pattern, env)
		if err != nil {
			return value.Null(), err
		}
		if p.Kind() != value.KindString {
			return value.Null(), fmt.Errorf("expr: LIKE pattern must be a string")
		}
		m = compileLike(p.AsString())
		ev.likeCache[t] = m
	}
	ok := m.match(x.String())
	if t.Not {
		ok = !ok
	}
	return value.Bool(ok), nil
}

// LikeMatch reports whether s matches the SQL LIKE pattern (% = any run,
// _ = any one byte). Exported so the vectorized filter kernel shares the
// evaluator's matcher instead of reimplementing it.
func LikeMatch(pattern, s string) bool { return likeMatch(pattern, s) }

// likeMatcher matches SQL LIKE patterns (% = any run, _ = any one byte).
type likeMatcher struct {
	pattern string
}

func compileLike(pattern string) *likeMatcher { return &likeMatcher{pattern: pattern} }

func (m *likeMatcher) match(s string) bool { return likeMatch(m.pattern, s) }

func likeMatch(p, s string) bool {
	// Iterative two-pointer wildcard matching, linear-ish.
	pi, si := 0, 0
	star, mark := -1, 0
	for si < len(s) {
		switch {
		case pi < len(p) && (p[pi] == '_' || p[pi] == s[si]):
			pi++
			si++
		case pi < len(p) && p[pi] == '%':
			star = pi
			mark = si
			pi++
		case star >= 0:
			pi = star + 1
			mark++
			si = mark
		default:
			return false
		}
	}
	for pi < len(p) && p[pi] == '%' {
		pi++
	}
	return pi == len(p)
}

func (ev *Evaluator) evalCall(t *sqlparse.Call, env Env) (value.Value, error) {
	switch t.Name {
	case "SUBSTRING":
		s, err := ev.Eval(t.Args[0], env)
		if err != nil {
			return value.Null(), err
		}
		start, err := ev.Eval(t.Args[1], env)
		if err != nil {
			return value.Null(), err
		}
		if s.IsNull() || start.IsNull() {
			return value.Null(), nil
		}
		str := s.String()
		si, ok := start.IntNum()
		if !ok {
			return value.Null(), fmt.Errorf("expr: SUBSTRING start must be numeric")
		}
		length := int64(len(str))
		if len(t.Args) == 3 {
			lv, err := ev.Eval(t.Args[2], env)
			if err != nil {
				return value.Null(), err
			}
			if lv.IsNull() {
				return value.Null(), nil
			}
			length, ok = lv.IntNum()
			if !ok {
				return value.Null(), fmt.Errorf("expr: SUBSTRING length must be numeric")
			}
		}
		return value.Str(substr(str, si, length)), nil
	case "UPPER":
		return ev.stringFunc(t, env, strings.ToUpper)
	case "LOWER":
		return ev.stringFunc(t, env, strings.ToLower)
	case "TRIM":
		return ev.stringFunc(t, env, strings.TrimSpace)
	case "LENGTH", "CHAR_LENGTH", "CHARACTER_LENGTH":
		if len(t.Args) != 1 {
			return value.Null(), fmt.Errorf("expr: %s takes 1 argument", t.Name)
		}
		v, err := ev.Eval(t.Args[0], env)
		if err != nil || v.IsNull() {
			return value.Null(), err
		}
		return value.Int(int64(len(v.String()))), nil
	case "ABS":
		if len(t.Args) != 1 {
			return value.Null(), fmt.Errorf("expr: ABS takes 1 argument")
		}
		v, err := ev.Eval(t.Args[0], env)
		if err != nil || v.IsNull() {
			return value.Null(), err
		}
		switch v.Kind() {
		case value.KindInt:
			i := v.AsInt()
			if i < 0 {
				i = -i
			}
			return value.Int(i), nil
		case value.KindFloat:
			return value.Float(math.Abs(v.AsFloat())), nil
		}
		return value.Null(), fmt.Errorf("expr: ABS on %s", v.Kind())
	case "EXTRACT":
		return ev.evalExtract(t, env)
	case "COALESCE":
		for _, a := range t.Args {
			v, err := ev.Eval(a, env)
			if err != nil {
				return value.Null(), err
			}
			if !v.IsNull() {
				return v, nil
			}
		}
		return value.Null(), nil
	case "NULLIF":
		if len(t.Args) != 2 {
			return value.Null(), fmt.Errorf("expr: NULLIF takes 2 arguments")
		}
		a, err := ev.Eval(t.Args[0], env)
		if err != nil {
			return value.Null(), err
		}
		b, err := ev.Eval(t.Args[1], env)
		if err != nil {
			return value.Null(), err
		}
		if value.Equal(a, b) {
			return value.Null(), nil
		}
		return a, nil
	case "BLOOM_CONTAINS":
		return ev.evalBloomContains(t, env)
	default:
		return value.Null(), fmt.Errorf("expr: unknown function %s", t.Name)
	}
}

func (ev *Evaluator) stringFunc(t *sqlparse.Call, env Env, fn func(string) string) (value.Value, error) {
	if len(t.Args) != 1 {
		return value.Null(), fmt.Errorf("expr: %s takes 1 argument", t.Name)
	}
	v, err := ev.Eval(t.Args[0], env)
	if err != nil || v.IsNull() {
		return value.Null(), err
	}
	return value.Str(fn(v.String())), nil
}

// evalExtract implements EXTRACT(YEAR|MONTH|DAY FROM date). String
// arguments in YYYY-MM-DD form are accepted (CSV semantics).
func (ev *Evaluator) evalExtract(t *sqlparse.Call, env Env) (value.Value, error) {
	if len(t.Args) != 2 {
		return value.Null(), fmt.Errorf("expr: EXTRACT takes a part and a date")
	}
	part, err := ev.Eval(t.Args[0], env)
	if err != nil {
		return value.Null(), err
	}
	x, err := ev.Eval(t.Args[1], env)
	if err != nil || x.IsNull() {
		return value.Null(), err
	}
	d, err := value.CastDate(x)
	if err != nil {
		return value.Null(), fmt.Errorf("expr: EXTRACT from non-date %v: %w", x, err)
	}
	s := d.String() // YYYY-MM-DD
	switch part.String() {
	case "YEAR":
		return value.CastInt(value.Str(s[0:4]))
	case "MONTH":
		return value.CastInt(value.Str(s[5:7]))
	case "DAY":
		return value.CastInt(value.Str(s[8:10]))
	}
	return value.Null(), fmt.Errorf("expr: unsupported EXTRACT part %q", part.String())
}

// substr implements SQL SUBSTRING semantics: 1-based start, clamped.
func substr(s string, start, length int64) string {
	if length < 0 {
		length = 0
	}
	// SQL: positions before 1 consume length.
	if start < 1 {
		length += start - 1
		start = 1
	}
	if length <= 0 {
		return ""
	}
	i := start - 1
	if i >= int64(len(s)) {
		return ""
	}
	j := i + length
	if j > int64(len(s)) {
		j = int64(len(s))
	}
	return s[i:j]
}

// evalBloomContains implements the BLOOM_CONTAINS extension (paper's
// Suggestion 3: bitwise Bloom probe instead of the '0'/'1' string hack).
//
//	BLOOM_CONTAINS(bitsHex, m, n, a1, b1, a2, b2, ..., x)
//
// bitsHex is the bit array hex-encoded (bit i = byte i/8, LSB first);
// m is the bit-array length, n the hash prime, then k (a,b) pairs, and the
// final argument is the probed integer expression.
func (ev *Evaluator) evalBloomContains(t *sqlparse.Call, env Env) (value.Value, error) {
	if len(t.Args) < 6 || len(t.Args)%2 != 0 {
		return value.Null(), fmt.Errorf("expr: BLOOM_CONTAINS(bitsHex, m, n, a1, b1, ..., x)")
	}
	bits, ok := ev.bloomCache[t]
	if !ok {
		lit, isLit := t.Args[0].(*sqlparse.Literal)
		if !isLit || lit.Val.Kind() != value.KindString {
			return value.Null(), fmt.Errorf("expr: BLOOM_CONTAINS bits must be a string literal")
		}
		var err error
		bits, err = hex.DecodeString(lit.Val.AsString())
		if err != nil {
			return value.Null(), fmt.Errorf("expr: BLOOM_CONTAINS bad hex: %w", err)
		}
		ev.bloomCache[t] = bits
	}
	geti := func(e sqlparse.Expr) (int64, error) {
		v, err := ev.Eval(e, env)
		if err != nil {
			return 0, err
		}
		i, ok := v.IntNum()
		if !ok {
			return 0, fmt.Errorf("expr: BLOOM_CONTAINS numeric argument expected")
		}
		return i, nil
	}
	m, err := geti(t.Args[1])
	if err != nil {
		return value.Null(), err
	}
	n, err := geti(t.Args[2])
	if err != nil {
		return value.Null(), err
	}
	xv, err := ev.Eval(t.Args[len(t.Args)-1], env)
	if err != nil {
		return value.Null(), err
	}
	if xv.IsNull() {
		return value.Null(), nil
	}
	x, ok := xv.IntNum()
	if !ok {
		return value.Bool(false), nil
	}
	for i := 3; i+1 < len(t.Args)-1; i += 2 {
		a, err := geti(t.Args[i])
		if err != nil {
			return value.Null(), err
		}
		b, err := geti(t.Args[i+1])
		if err != nil {
			return value.Null(), err
		}
		pos := ((a*x + b) % n) % m
		if pos < 0 {
			pos += m
		}
		if int(pos/8) >= len(bits) || bits[pos/8]&(1<<uint(pos%8)) == 0 {
			return value.Bool(false), nil
		}
	}
	return value.Bool(true), nil
}
