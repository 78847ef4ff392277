package sqlparse

import (
	"strings"

	"pushdowndb/internal/value"
)

// Expr is any expression node. String renders the node back to SQL text
// this parser reads back as the same tree: the one renderer of S3 Select
// request text, written by printer.
type Expr interface {
	String() string
	write(p *printer)
}

// printer renders a tree as SQL text into one buffer, each node writing
// itself (write). A first pass over the tree only counts the bytes, so the
// buffer is allocated once, at the printed length: a 48 KB Bloom predicate
// costs 48 KB, not a copy per nesting level.
type printer struct {
	b        strings.Builder
	counting bool
	n        int
}

// sprint is the text of n, the one renderer behind every String method.
func sprint(n interface{ write(*printer) }) string {
	p := &printer{counting: true}
	n.write(p)
	p.counting = false
	p.b.Grow(p.n)
	n.write(p)
	return p.b.String()
}

// Every node's String is its printed text.
func (c *Column) String() string    { return sprint(c) }
func (l *Literal) String() string   { return sprint(l) }
func (s *Star) String() string      { return sprint(s) }
func (b *Binary) String() string    { return sprint(b) }
func (u *Unary) String() string     { return sprint(u) }
func (n *IsNull) String() string    { return sprint(n) }
func (b *Between) String() string   { return sprint(b) }
func (i *In) String() string        { return sprint(i) }
func (l *Like) String() string      { return sprint(l) }
func (c *Case) String() string      { return sprint(c) }
func (c *Cast) String() string      { return sprint(c) }
func (c *Call) String() string      { return sprint(c) }
func (a *Aggregate) String() string { return sprint(a) }
func (s SelectItem) String() string { return sprint(s) }
func (o OrderItem) String() string  { return sprint(o) }
func (s *Select) String() string    { return sprint(s) }

func (p *printer) str(s string) {
	if p.counting {
		p.n += len(s)
	} else {
		p.b.WriteString(s)
	}
}

// value writes v as String renders it, without the intermediate string.
func (p *printer) value(v value.Value) {
	var buf [32]byte
	if text := v.Append(buf[:0]); p.counting {
		p.n += len(text)
	} else {
		p.b.Write(text)
	}
}

// quoted writes s as a string literal, each quote doubled (ReplaceAll
// copies nothing when there is none).
func (p *printer) quoted(s string) {
	p.str("'")
	p.str(strings.ReplaceAll(s, "'", "''"))
	p.str("'")
}

func (p *printer) ident(s string) { p.str(quoteIdent(s)) }

func (p *printer) alias(s string) {
	if s != "" {
		p.str(" AS ")
		p.ident(s)
	}
}

func (p *printer) either(cond bool, yes, no string) {
	if cond {
		p.str(yes)
	} else {
		p.str(no)
	}
}

// put writes each part, a string or an expression.
func (p *printer) put(parts ...any) {
	for _, x := range parts {
		if e, ok := x.(Expr); ok {
			e.write(p)
		} else {
			p.str(x.(string))
		}
	}
}

// list writes exprs comma-separated.
func (p *printer) list(exprs []Expr) {
	for i, e := range exprs {
		p.either(i > 0, ", ", "")
		e.write(p)
	}
}

// Column references a column by name (optionally qualified, e.g. s.c_custkey
// or the S3 Select positional form _1).
type Column struct {
	Qualifier string // optional table alias
	Name      string
}

func (c *Column) write(p *printer) {
	if c.Qualifier != "" {
		p.ident(c.Qualifier)
		p.str(".")
	}
	p.ident(c.Name)
}

// quoteIdent renders an identifier, double-quoting it when the bare text
// would not re-lex as the same identifier (specials or spaces, a leading
// digit, or a keyword collision). Identifier text cannot contain a double
// quote — the lexer has no escape for one — so plain wrapping round-trips.
func quoteIdent(s string) string {
	if isPlainIdent(s) {
		return s
	}
	return `"` + s + `"`
}

func isPlainIdent(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z'):
		case i > 0 && c >= '0' && c <= '9':
		default:
			return false
		}
	}
	return keyword(s) == ""
}

// Literal is a constant value.
type Literal struct {
	Val value.Value
}

func (l *Literal) write(p *printer) {
	switch l.Val.Kind() {
	case value.KindString:
		p.quoted(l.Val.AsString())
	case value.KindDate:
		p.str("DATE '")
		p.value(l.Val)
		p.str("'")
	case value.KindNull:
		p.str("NULL")
	case value.KindBool:
		p.either(l.Val.AsBool(), "TRUE", "FALSE")
	default:
		p.value(l.Val)
	}
}

// Star is the bare `*` in a select list or COUNT(*).
type Star struct{}

func (*Star) write(p *printer) { p.str("*") }

// BinaryOp enumerates binary operators.
type BinaryOp uint8

// Binary operators.
const (
	OpAnd BinaryOp = iota
	OpOr
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod
	OpConcat
)

var binOpText = map[BinaryOp]string{
	OpAnd: "AND", OpOr: "OR", OpEq: "=", OpNe: "!=", OpLt: "<", OpLe: "<=",
	OpGt: ">", OpGe: ">=", OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/",
	OpMod: "%", OpConcat: "||",
}

// Binary is a binary operation.
type Binary struct {
	Op   BinaryOp
	L, R Expr
}

func (b *Binary) write(p *printer) {
	p.put("(", b.L, " ")
	p.str(binOpText[b.Op])
	p.put(" ", b.R, ")")
}

// Unary is NOT expr or -expr.
type Unary struct {
	Op string // "NOT" or "-"
	X  Expr
}

func (u *Unary) write(p *printer) {
	p.either(u.Op == "NOT", "(NOT ", "(-")
	p.put(u.X, ")")
}

// IsNull is `expr IS [NOT] NULL`.
type IsNull struct {
	X   Expr
	Not bool
}

func (n *IsNull) write(p *printer) {
	p.put("(", n.X)
	p.either(n.Not, " IS NOT NULL)", " IS NULL)")
}

// Between is `expr [NOT] BETWEEN lo AND hi`.
type Between struct {
	X, Lo, Hi Expr
	Not       bool
}

func (b *Between) write(p *printer) {
	p.put("(", b.X, " ")
	p.either(b.Not, "NOT ", "")
	p.put("BETWEEN ", b.Lo, " AND ", b.Hi, ")")
}

// In is `expr [NOT] IN (e1, e2, ...)`.
type In struct {
	X    Expr
	List []Expr
	Not  bool
}

func (i *In) write(p *printer) {
	p.put("(", i.X, " ")
	p.either(i.Not, "NOT ", "")
	p.str("IN (")
	p.list(i.List)
	p.str("))")
}

// Like is `expr [NOT] LIKE pattern` with % and _ wildcards.
type Like struct {
	X, Pattern Expr
	Not        bool
}

func (l *Like) write(p *printer) {
	p.put("(", l.X, " ")
	p.either(l.Not, "NOT ", "")
	p.put("LIKE ", l.Pattern, ")")
}

// Case is a searched CASE expression: CASE WHEN c THEN v ... ELSE e END.
type Case struct {
	Whens []When
	Else  Expr // may be nil
}

// When is one WHEN/THEN arm of a Case.
type When struct {
	Cond, Result Expr
}

func (c *Case) write(p *printer) {
	p.str("CASE")
	for _, w := range c.Whens {
		p.put(" WHEN ", w.Cond, " THEN ", w.Result)
	}
	if c.Else != nil {
		p.put(" ELSE ", c.Else)
	}
	p.str(" END")
}

// Cast is CAST(expr AS type).
type Cast struct {
	X  Expr
	To value.Kind
}

var castText = map[value.Kind]string{
	value.KindInt: "INT", value.KindFloat: "FLOAT",
	value.KindString: "STRING", value.KindDate: "TIMESTAMP",
	value.KindBool: "BOOL",
}

func (c *Cast) write(p *printer) {
	p.put("CAST(", c.X, " AS ")
	p.str(castText[c.To])
	p.str(")")
}

// Call is a scalar function call (SUBSTRING, UPPER, LOWER, LENGTH, ABS,
// and the BLOOM_CONTAINS extension).
type Call struct {
	Name string // upper case
	Args []Expr
}

func (c *Call) write(p *printer) {
	if c.Name == "EXTRACT" && len(c.Args) == 2 {
		if lit, ok := c.Args[0].(*Literal); ok && lit.Val.Kind() == value.KindString {
			p.str("EXTRACT(")
			p.str(lit.Val.AsString())
			p.put(" FROM ", c.Args[1], ")")
			return
		}
	}
	p.ident(c.Name)
	p.str("(")
	p.list(c.Args)
	p.str(")")
}

// AggFunc enumerates aggregate functions.
type AggFunc uint8

// Aggregate functions.
const (
	AggSum AggFunc = iota
	AggCount
	AggMin
	AggMax
	AggAvg
)

var aggText = map[AggFunc]string{
	AggSum: "SUM", AggCount: "COUNT", AggMin: "MIN", AggMax: "MAX", AggAvg: "AVG",
}

// Aggregate is SUM(x), COUNT(*), AVG(x), MIN(x), MAX(x). X is *Star for
// COUNT(*).
type Aggregate struct {
	Func AggFunc
	X    Expr
}

func (a *Aggregate) write(p *printer) {
	p.str(aggText[a.Func])
	p.put("(", a.X, ")")
}

// SelectItem is one entry of the select list.
type SelectItem struct {
	Expr  Expr   // *Star for `*`
	Alias string // optional AS alias
}

// Name is the item's output column name: the alias if there is one, the
// bare column name for a plain column reference, the printed expression
// otherwise.
func (s SelectItem) Name() string {
	if s.Alias != "" {
		return s.Alias
	}
	if c, ok := s.Expr.(*Column); ok {
		return c.Name
	}
	return s.Expr.String()
}

func (s SelectItem) write(p *printer) {
	s.Expr.write(p)
	p.alias(s.Alias)
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

func (o OrderItem) write(p *printer) {
	o.Expr.write(p)
	p.either(o.Desc, " DESC", " ASC")
}

// Join is one additional table of the FROM clause: either an explicit
// `[INNER] JOIN table [alias] ON cond`, or an implicit comma join
// (`FROM a, b`) whose join condition lives in WHERE and has Cond == nil.
type Join struct {
	Table string
	Alias string // optional table alias
	Cond  Expr   // ON condition; nil for comma joins
	Comma bool   // true when written as `, table` rather than `JOIN table`
}

// Select is a parsed SELECT statement.
type Select struct {
	Items   []SelectItem
	Table   string // first FROM table (S3 Select: always "S3Object")
	Alias   string // optional table alias
	Joins   []Join // additional FROM tables; rejected by the select engine
	Where   Expr   // may be nil
	GroupBy []Expr // PushdownDB extension; rejected by the select engine
	OrderBy []OrderItem
	Limit   int64 // -1 when absent
}

func (s *Select) write(p *printer) {
	p.str("SELECT ")
	for i, it := range s.Items {
		p.either(i > 0, ", ", "")
		it.write(p)
	}
	p.str(" FROM ")
	p.ident(s.Table)
	p.alias(s.Alias)
	for _, j := range s.Joins {
		p.either(j.Comma, ", ", " JOIN ")
		p.ident(j.Table)
		p.alias(j.Alias)
		if j.Cond != nil {
			p.put(" ON ", j.Cond)
		}
	}
	if s.Where != nil {
		p.put(" WHERE ", s.Where)
	}
	if len(s.GroupBy) > 0 {
		p.str(" GROUP BY ")
		p.list(s.GroupBy)
	}
	for i, o := range s.OrderBy {
		p.either(i > 0, ", ", " ORDER BY ")
		o.write(p)
	}
	if s.Limit >= 0 {
		p.str(" LIMIT ")
		p.value(value.Int(s.Limit))
	}
}

// HasAggregates reports whether any select item contains an aggregate.
func (s *Select) HasAggregates() bool {
	for _, it := range s.Items {
		if ContainsAggregate(it.Expr) {
			return true
		}
	}
	return false
}

// Walk visits e and the nodes under it in pre-order (a node before its
// children, children left to right); a nil e is no node. When f returns
// false the node's children are skipped. Walk and Rewrite are the only
// enumerations of the composite node types: every read-only traversal is a
// caller of Walk.
func Walk(e Expr, f func(Expr) bool) {
	if e == nil || !f(e) {
		return
	}
	switch t := e.(type) {
	case *Binary:
		Walk(t.L, f)
		Walk(t.R, f)
	case *Unary:
		Walk(t.X, f)
	case *Case:
		for _, w := range t.Whens {
			Walk(w.Cond, f)
			Walk(w.Result, f)
		}
		Walk(t.Else, f)
	case *Cast:
		Walk(t.X, f)
	case *Call:
		for _, a := range t.Args {
			Walk(a, f)
		}
	case *Aggregate:
		Walk(t.X, f)
	case *Between:
		Walk(t.X, f)
		Walk(t.Lo, f)
		Walk(t.Hi, f)
	case *In:
		Walk(t.X, f)
		for _, a := range t.List {
			Walk(a, f)
		}
	case *Like:
		Walk(t.X, f)
		Walk(t.Pattern, f)
	case *IsNull:
		Walk(t.X, f)
	}
}

// ContainsAggregate reports whether an Aggregate node is anywhere in e.
func ContainsAggregate(e Expr) bool {
	found := false
	Walk(e, func(n Expr) bool {
		if _, isAgg := n.(*Aggregate); isAgg {
			found = true
		}
		return !found
	})
	return found
}

// ItemExprs returns the select items' expressions.
func ItemExprs(items []SelectItem) []Expr {
	out := make([]Expr, len(items))
	for i, it := range items {
		out[i] = it.Expr
	}
	return out
}

// Conjuncts splits e on top-level ANDs, returning the flat conjunct list.
// A nil expression yields nil. The join planner classifies each conjunct
// independently (per-table pushdown, equi-join key, or local residual).
func Conjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*Binary); ok && b.Op == OpAnd {
		return append(Conjuncts(b.L), Conjuncts(b.R)...)
	}
	return []Expr{e}
}

// AndAll joins exprs back into a single conjunction (nil when empty).
func AndAll(exprs []Expr) Expr {
	var out Expr
	for _, e := range exprs {
		if out == nil {
			out = e
		} else {
			out = &Binary{Op: OpAnd, L: out, R: e}
		}
	}
	return out
}

// Rewrite returns a structural copy of e, top-down: f sees each node
// before its children, and a node f replaces (returns another node for) is
// replaced whole, its children unvisited; a node f returns as is is copied
// with its children rewritten.
func Rewrite(e Expr, f func(Expr) Expr) Expr {
	if r := f(e); r != e {
		return r
	}
	switch t := e.(type) {
	case *Binary:
		e = &Binary{Op: t.Op, L: Rewrite(t.L, f), R: Rewrite(t.R, f)}
	case *Unary:
		e = &Unary{Op: t.Op, X: Rewrite(t.X, f)}
	case *Case:
		out := &Case{}
		for _, w := range t.Whens {
			out.Whens = append(out.Whens, When{Cond: Rewrite(w.Cond, f), Result: Rewrite(w.Result, f)})
		}
		if t.Else != nil {
			out.Else = Rewrite(t.Else, f)
		}
		e = out
	case *Cast:
		e = &Cast{X: Rewrite(t.X, f), To: t.To}
	case *Call:
		out := &Call{Name: t.Name}
		for _, a := range t.Args {
			out.Args = append(out.Args, Rewrite(a, f))
		}
		e = out
	case *Aggregate:
		e = &Aggregate{Func: t.Func, X: Rewrite(t.X, f)}
	case *Between:
		e = &Between{X: Rewrite(t.X, f), Lo: Rewrite(t.Lo, f), Hi: Rewrite(t.Hi, f), Not: t.Not}
	case *In:
		out := &In{X: Rewrite(t.X, f), Not: t.Not}
		for _, a := range t.List {
			out.List = append(out.List, Rewrite(a, f))
		}
		e = out
	case *Like:
		e = &Like{X: Rewrite(t.X, f), Pattern: Rewrite(t.Pattern, f), Not: t.Not}
	case *IsNull:
		e = &IsNull{X: Rewrite(t.X, f), Not: t.Not}
	}
	return e
}

// StripQualifiers returns a copy of e with every column qualifier removed.
// SQL pushed into S3 Select addresses a single object, so table aliases
// from the multi-table query are meaningless (and rejected) there.
func StripQualifiers(e Expr) Expr {
	return Rewrite(e, func(n Expr) Expr {
		if c, ok := n.(*Column); ok && c.Qualifier != "" {
			return &Column{Name: c.Name}
		}
		return n
	})
}

// ColumnRefs collects every column node referenced by e (with qualifiers,
// duplicates included). The join planner resolves each reference against
// the FROM tables' headers.
func ColumnRefs(e Expr) []*Column {
	var out []*Column
	Walk(e, func(n Expr) bool {
		if c, ok := n.(*Column); ok {
			out = append(out, c)
		}
		return true
	})
	return out
}

// Columns collects the distinct column names referenced by e, in first-seen
// order. Used for projection pushdown and columnar scans.
func Columns(e Expr) []string {
	var out []string
	seen := map[string]bool{}
	for _, c := range ColumnRefs(e) {
		if !seen[c.Name] {
			seen[c.Name] = true
			out = append(out, c.Name)
		}
	}
	return out
}
