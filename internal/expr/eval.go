// Package expr evaluates sqlparse expression trees over rows and runs the
// row-at-a-time SELECT block built on them. It is shared by the S3 Select
// engine (storage-side evaluation) and by PushdownDB's local operators
// (server-side evaluation), so the two sides agree exactly on the dialect's
// semantics: Evaluator is the one expression interpreter, AggState the one
// (order-independent) accumulator, and RowExec the one WHERE → project |
// aggregate executor both sides feed rows to, over the one group table.
//
// An evaluator is bound once per statement and header, before any row
// (Bind): each column reference resolves by the name rule (sqlparse.Names)
// to a position, and a name the header lacks is refused whatever rows
// follow. A row is a []value.Value; a column reads the cell at its position,
// and a cell past the row's end is NULL.
package expr

import (
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"

	"pushdowndb/internal/sqlparse"
	"pushdowndb/internal/value"
)

// ErrUnknownColumn marks a column reference its header has no column for.
var ErrUnknownColumn = errors.New("unknown column")

// Evaluator evaluates the expressions bound to it. Its binding, keyed by node
// identity so that a statement's tree stays read-only and shared, is its only
// state: each column reference's row position and each BLOOM_CONTAINS call's
// decoded bit array. The zero value has bound nothing.
type Evaluator struct {
	pos  map[*sqlparse.Column]int
	bits map[*sqlparse.Call][]byte
	cols []int // the distinct header positions bound, first-seen
}

// Index is Bind's index for rows laid out as header: the name rule over it,
// or none for a nil header (an object with no lines).
func Index(header []string) func(name string) int {
	if header == nil {
		return nil
	}
	return sqlparse.NewNames(header).Index
}

// Bind adds exprs to ev's binding. index resolves a name to its header
// position, or -1: an ErrUnknownColumn. A nil index binds every column past
// the end of every row. A malformed BLOOM_CONTAINS is refused here too. A
// node ev has bound keeps its position.
func (ev *Evaluator) Bind(index func(name string) int, exprs ...sqlparse.Expr) error {
	if ev.pos == nil {
		ev.pos = map[*sqlparse.Column]int{}
	}
	var err error
	visit := func(n sqlparse.Expr) bool {
		switch t := n.(type) {
		case *sqlparse.Column:
			if _, ok := ev.pos[t]; ok {
				break
			}
			p := math.MaxInt // no header: past every row's end
			if index != nil {
				if p = index(t.Name); p < 0 {
					err = fmt.Errorf("expr: %w %s", ErrUnknownColumn, t)
					break
				}
				if !slices.Contains(ev.cols, p) {
					ev.cols = append(ev.cols, p)
				}
			}
			ev.pos[t] = p
		case *sqlparse.Call:
			if t.Name == "BLOOM_CONTAINS" {
				err = ev.bindBloom(t)
			}
		}
		return err == nil
	}
	for _, e := range exprs {
		if sqlparse.Walk(e, visit); err != nil {
			break
		}
	}
	return err
}

// Cols returns the distinct header positions the bound expressions read, in
// first-seen order: the cells a scan fills in each row.
func (ev *Evaluator) Cols() []int { return ev.cols }

// bindBloom decodes a BLOOM_CONTAINS call's bit array (evalBloomContains).
func (ev *Evaluator) bindBloom(t *sqlparse.Call) error {
	if len(t.Args) < 6 || len(t.Args)%2 != 0 {
		return fmt.Errorf("expr: BLOOM_CONTAINS(bitsHex, m, n, a1, b1, ..., x)")
	}
	lit, isLit := t.Args[0].(*sqlparse.Literal)
	if !isLit || lit.Val.Kind() != value.KindString {
		return fmt.Errorf("expr: BLOOM_CONTAINS bits must be a string literal")
	}
	bits, err := hex.DecodeString(lit.Val.AsString())
	if err != nil {
		return fmt.Errorf("expr: BLOOM_CONTAINS bad hex: %w", err)
	}
	if ev.bits == nil {
		ev.bits = map[*sqlparse.Call][]byte{}
	}
	ev.bits[t] = bits
	return nil
}

// Eval computes e, which ev has bound, over row.
func (ev *Evaluator) Eval(e sqlparse.Expr, row []value.Value) (value.Value, error) {
	switch t := e.(type) {
	case *sqlparse.Literal:
		return t.Val, nil
	case *sqlparse.Column:
		p, ok := ev.pos[t]
		switch {
		case !ok:
			return value.Null(), fmt.Errorf("expr: column %s is not bound", t)
		case p < len(row):
			return row[p], nil
		}
		return value.Null(), nil
	case *sqlparse.Star:
		return value.Null(), fmt.Errorf("expr: * is not a scalar expression")
	case *sqlparse.Binary:
		return ev.evalBinary(t, row)
	case *sqlparse.Unary:
		return ev.evalUnary(t, row)
	case *sqlparse.IsNull:
		v, err := ev.Eval(t.X, row)
		if err != nil {
			return value.Null(), err
		}
		if t.Not {
			return value.Bool(!v.IsNull()), nil
		}
		return value.Bool(v.IsNull()), nil
	case *sqlparse.Between:
		x, err := ev.Eval(t.X, row)
		if err != nil {
			return value.Null(), err
		}
		lo, err := ev.Eval(t.Lo, row)
		if err != nil {
			return value.Null(), err
		}
		hi, err := ev.Eval(t.Hi, row)
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
		x, err := ev.Eval(t.X, row)
		if err != nil {
			return value.Null(), err
		}
		if x.IsNull() {
			return value.Null(), nil
		}
		found := false
		for _, item := range t.List {
			v, err := ev.Eval(item, row)
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
		return ev.evalLike(t, row)
	case *sqlparse.Case:
		for _, w := range t.Whens {
			c, err := ev.Eval(w.Cond, row)
			if err != nil {
				return value.Null(), err
			}
			if value.Truthy(c) {
				return ev.Eval(w.Result, row)
			}
		}
		if t.Else != nil {
			return ev.Eval(t.Else, row)
		}
		return value.Null(), nil
	case *sqlparse.Cast:
		v, err := ev.Eval(t.X, row)
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
		return ev.evalCall(t, row)
	case *sqlparse.Aggregate:
		return value.Null(), fmt.Errorf("expr: aggregate %s evaluated outside aggregation", t.String())
	default:
		return value.Null(), fmt.Errorf("expr: unsupported node %T", e)
	}
}

// EvalBool evaluates e and interprets the result as a predicate.
func (ev *Evaluator) EvalBool(e sqlparse.Expr, row []value.Value) (bool, error) {
	v, err := ev.Eval(e, row)
	if err != nil {
		return false, err
	}
	return value.Truthy(v), nil
}

func (ev *Evaluator) evalUnary(t *sqlparse.Unary, row []value.Value) (value.Value, error) {
	v, err := ev.Eval(t.X, row)
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

func (ev *Evaluator) evalBinary(t *sqlparse.Binary, row []value.Value) (value.Value, error) {
	// AND/OR get three-valued logic with short-circuiting.
	switch t.Op {
	case sqlparse.OpAnd:
		l, err := ev.Eval(t.L, row)
		if err != nil {
			return value.Null(), err
		}
		if l.Kind() == value.KindBool && !l.AsBool() {
			return value.Bool(false), nil
		}
		r, err := ev.Eval(t.R, row)
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
		l, err := ev.Eval(t.L, row)
		if err != nil {
			return value.Null(), err
		}
		if l.Kind() == value.KindBool && l.AsBool() {
			return value.Bool(true), nil
		}
		r, err := ev.Eval(t.R, row)
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

	l, err := ev.Eval(t.L, row)
	if err != nil {
		return value.Null(), err
	}
	r, err := ev.Eval(t.R, row)
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

func (ev *Evaluator) evalLike(t *sqlparse.Like, row []value.Value) (value.Value, error) {
	x, err := ev.Eval(t.X, row)
	if err != nil || x.IsNull() {
		return value.Null(), err
	}
	p, err := ev.Eval(t.Pattern, row)
	if err != nil || p.IsNull() {
		return value.Null(), err
	}
	// The pattern is matched by its text, as the subject is: storage's CSV
	// cells and the server's typed cells agree.
	return value.Bool(LikeMatch(p.String(), x.String()) != t.Not), nil
}

// LikeMatch reports whether s matches the SQL LIKE pattern p (% = any run,
// _ = any one byte); the vectorized filter kernel shares it.
func LikeMatch(p, s string) bool {
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

func (ev *Evaluator) evalCall(t *sqlparse.Call, row []value.Value) (value.Value, error) {
	switch t.Name {
	case "SUBSTRING":
		s, err := ev.Eval(t.Args[0], row)
		if err != nil {
			return value.Null(), err
		}
		start, err := ev.Eval(t.Args[1], row)
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
			lv, err := ev.Eval(t.Args[2], row)
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
		return ev.stringFunc(t, row, strings.ToUpper)
	case "LOWER":
		return ev.stringFunc(t, row, strings.ToLower)
	case "TRIM":
		return ev.stringFunc(t, row, strings.TrimSpace)
	case "LENGTH", "CHAR_LENGTH", "CHARACTER_LENGTH":
		if len(t.Args) != 1 {
			return value.Null(), fmt.Errorf("expr: %s takes 1 argument", t.Name)
		}
		v, err := ev.Eval(t.Args[0], row)
		if err != nil || v.IsNull() {
			return value.Null(), err
		}
		return value.Int(int64(len(v.String()))), nil
	case "ABS":
		if len(t.Args) != 1 {
			return value.Null(), fmt.Errorf("expr: ABS takes 1 argument")
		}
		v, err := ev.Eval(t.Args[0], row)
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
		return ev.evalExtract(t, row)
	case "COALESCE":
		for _, a := range t.Args {
			v, err := ev.Eval(a, row)
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
		a, err := ev.Eval(t.Args[0], row)
		if err != nil {
			return value.Null(), err
		}
		b, err := ev.Eval(t.Args[1], row)
		if err != nil {
			return value.Null(), err
		}
		if value.Equal(a, b) {
			return value.Null(), nil
		}
		return a, nil
	case "BLOOM_CONTAINS":
		return ev.evalBloomContains(t, row)
	default:
		return value.Null(), fmt.Errorf("expr: unknown function %s", t.Name)
	}
}

func (ev *Evaluator) stringFunc(t *sqlparse.Call, row []value.Value, fn func(string) string) (value.Value, error) {
	if len(t.Args) != 1 {
		return value.Null(), fmt.Errorf("expr: %s takes 1 argument", t.Name)
	}
	v, err := ev.Eval(t.Args[0], row)
	if err != nil || v.IsNull() {
		return value.Null(), err
	}
	return value.Str(fn(v.String())), nil
}

// evalExtract implements EXTRACT(YEAR|MONTH|DAY FROM date). String
// arguments in YYYY-MM-DD form are accepted (CSV semantics).
func (ev *Evaluator) evalExtract(t *sqlparse.Call, row []value.Value) (value.Value, error) {
	if len(t.Args) != 2 {
		return value.Null(), fmt.Errorf("expr: EXTRACT takes a part and a date")
	}
	part, err := ev.Eval(t.Args[0], row)
	if err != nil {
		return value.Null(), err
	}
	x, err := ev.Eval(t.Args[1], row)
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
// bitsHex is the bit array hex-encoded (bit i = byte i/8, LSB first), a
// string literal decoded once, at bind (bindBloom); m is the bit-array
// length, n the hash prime, then k (a,b) pairs, and the final argument is
// the probed integer expression.
func (ev *Evaluator) evalBloomContains(t *sqlparse.Call, row []value.Value) (value.Value, error) {
	bits, ok := ev.bits[t]
	if !ok {
		return value.Null(), fmt.Errorf("expr: %s is not bound", t)
	}
	geti := func(e sqlparse.Expr) (int64, error) {
		v, err := ev.Eval(e, row)
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
	xv, err := ev.Eval(t.Args[len(t.Args)-1], row)
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
