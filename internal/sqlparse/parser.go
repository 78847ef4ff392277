package sqlparse

import (
	"fmt"
	"strconv"
	"strings"

	"pushdowndb/internal/value"
)

// Parse parses a single SELECT statement.
func Parse(src string) (*Select, error) {
	p := &parser{lex: NewLexer(src), src: src}
	if err := p.advance(); err != nil {
		return nil, err
	}
	sel, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	if p.tok.Type != TokEOF {
		return nil, p.errf("unexpected trailing input %s", p.tok)
	}
	return sel, nil
}

// ParseExpr parses a standalone expression (used in tests and by plan
// builders that assemble predicates from fragments).
func ParseExpr(src string) (Expr, error) {
	p := &parser{lex: NewLexer(src), src: src}
	if err := p.advance(); err != nil {
		return nil, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.tok.Type != TokEOF {
		return nil, p.errf("unexpected trailing input %s", p.tok)
	}
	return e, nil
}

type parser struct {
	lex   *Lexer
	src   string
	tok   Token
	depth int // expression nesting so far; see nest
	// The tree's depth, for leftAssoc: parens counts the open parenthesis
	// groups — levels of depth the tree does not have — and peak is the
	// deepest the tree has nested since the enclosing leftAssoc began.
	parens, peak int
}

// maxExprDepth caps how deeply an expression may nest: parentheses, call
// arguments, CASE arms, and the operator and prefix chains leftAssoc and
// prefixed count. The parser recurses per level (as does every walker over
// the tree it returns), so an unbounded depth lets a few hundred KB of "(((("
// hold a request for seconds. The figure is SQLite's default expression-depth
// limit; generated predicates here nest a handful of levels.
const maxExprDepth = 1000

// nest enters one expression nesting level; callers defer p.unnest().
func (p *parser) nest() error {
	if p.depth++; p.depth > maxExprDepth {
		return p.errf("expression nests deeper than %d levels", maxExprDepth)
	}
	p.peak = max(p.peak, p.depth-p.parens)
	return nil
}

func (p *parser) unnest() { p.depth-- }

func (p *parser) advance() error {
	t, err := p.lex.Next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("sqlparse: %s (at offset %d)", fmt.Sprintf(format, args...), p.tok.Pos)
}

func (p *parser) isKeyword(kw string) bool {
	return p.tok.Type == TokKeyword && p.tok.Text == kw
}

func (p *parser) isOp(op string) bool {
	return p.tok.Type == TokOp && p.tok.Text == op
}

func (p *parser) expectKeyword(kw string) error {
	if !p.isKeyword(kw) {
		return p.errf("expected %s, got %s", kw, p.tok)
	}
	return p.advance()
}

func (p *parser) expectOp(op string) error {
	if !p.isOp(op) {
		return p.errf("expected %q, got %s", op, p.tok)
	}
	return p.advance()
}

func (p *parser) parseSelect() (*Select, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	sel := &Select{Limit: -1}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		sel.Items = append(sel.Items, item)
		if p.isOp(",") {
			if err := p.advance(); err != nil {
				return nil, err
			}
			continue
		}
		break
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	table, alias, err := p.parseTableRef()
	if err != nil {
		return nil, err
	}
	sel.Table, sel.Alias = table, alias
	// Additional FROM tables: implicit comma joins (whose equality
	// predicates live in WHERE) and explicit [INNER] JOIN ... ON.
	for {
		switch {
		case p.isOp(","):
			if err := p.advance(); err != nil {
				return nil, err
			}
			t, a, err := p.parseTableRef()
			if err != nil {
				return nil, err
			}
			sel.Joins = append(sel.Joins, Join{Table: t, Alias: a, Comma: true})
			continue
		case p.isKeyword("LEFT"), p.isKeyword("RIGHT"), p.isKeyword("FULL"), p.isKeyword("CROSS"), p.isKeyword("OUTER"):
			// Reserved so they cannot be swallowed as table aliases,
			// which would silently turn an outer join into an inner one.
			return nil, p.errf("unsupported join type %s (only [INNER] JOIN ... ON and comma joins are supported)", p.tok.Text)
		case p.isKeyword("JOIN"), p.isKeyword("INNER"):
			if p.isKeyword("INNER") {
				if err := p.advance(); err != nil {
					return nil, err
				}
			}
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
			t, a, err := p.parseTableRef()
			if err != nil {
				return nil, err
			}
			if err := p.expectKeyword("ON"); err != nil {
				return nil, err
			}
			cond, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			sel.Joins = append(sel.Joins, Join{Table: t, Alias: a, Cond: cond})
			continue
		}
		break
	}
	if p.isKeyword("WHERE") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Where = w
	}
	if p.isKeyword("GROUP") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			g, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			sel.GroupBy = append(sel.GroupBy, g)
			if p.isOp(",") {
				if err := p.advance(); err != nil {
					return nil, err
				}
				continue
			}
			break
		}
	}
	if p.isKeyword("ORDER") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if e, err = p.orderKey(sel, e); err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.isKeyword("ASC") {
				if err := p.advance(); err != nil {
					return nil, err
				}
			} else if p.isKeyword("DESC") {
				item.Desc = true
				if err := p.advance(); err != nil {
					return nil, err
				}
			}
			sel.OrderBy = append(sel.OrderBy, item)
			if p.isOp(",") {
				if err := p.advance(); err != nil {
					return nil, err
				}
				continue
			}
			break
		}
	}
	if p.isKeyword("LIMIT") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.tok.Type != TokNumber {
			return nil, p.errf("expected number after LIMIT, got %s", p.tok)
		}
		n, err := strconv.ParseInt(p.tok.Text, 10, 64)
		if err != nil {
			return nil, p.errf("bad LIMIT %q", p.tok.Text)
		}
		sel.Limit = n
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	return sel, nil
}

// orderKey resolves an ORDER BY key that is an integer literal to the select
// item at that position (SQL-92 ordinals): the key becomes that item's own
// expression, so every reader of the tree sees what it sorts by. Any other
// key that reads no column orders nothing and is refused, like a position
// outside the select list, on a * or on such a constant (whose printed form
// would read as a position again).
func (p *parser) orderKey(sel *Select, e Expr) (Expr, error) {
	if len(ColumnRefs(e)) > 0 || ContainsAggregate(e) {
		return e, nil
	}
	lit, ok := e.(*Literal)
	if !ok || lit.Val.Kind() != value.KindInt {
		return nil, p.errf("ORDER BY key %s is a constant", e.String())
	}
	n := lit.Val.AsInt()
	if n < 1 || n > int64(len(sel.Items)) {
		return nil, p.errf("ORDER BY position %d is not in the select list (1 to %d)", n, len(sel.Items))
	}
	it := sel.Items[n-1].Expr
	if _, isStar := it.(*Star); isStar {
		return nil, p.errf("ORDER BY position %d names *, not a column", n)
	}
	if len(ColumnRefs(it)) == 0 && !ContainsAggregate(it) {
		return nil, p.errf("ORDER BY position %d names the constant %s", n, it.String())
	}
	return it, nil
}

// parseTableRef parses `table [AS alias | alias]`.
func (p *parser) parseTableRef() (table, alias string, err error) {
	if p.tok.Type != TokIdent {
		return "", "", p.errf("expected table name, got %s", p.tok)
	}
	table = p.tok.Text
	if err := p.advance(); err != nil {
		return "", "", err
	}
	if p.isKeyword("AS") {
		if err := p.advance(); err != nil {
			return "", "", err
		}
		if p.tok.Type != TokIdent {
			return "", "", p.errf("expected alias after AS, got %s", p.tok)
		}
		alias = p.tok.Text
		if err := p.advance(); err != nil {
			return "", "", err
		}
	} else if p.tok.Type == TokIdent {
		alias = p.tok.Text
		if err := p.advance(); err != nil {
			return "", "", err
		}
	}
	return table, alias, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	if p.isOp("*") {
		if err := p.advance(); err != nil {
			return SelectItem{}, err
		}
		return SelectItem{Expr: &Star{}}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.isKeyword("AS") {
		if err := p.advance(); err != nil {
			return SelectItem{}, err
		}
		if p.tok.Type != TokIdent {
			return SelectItem{}, p.errf("expected alias after AS, got %s", p.tok)
		}
		item.Alias = p.tok.Text
		if err := p.advance(); err != nil {
			return SelectItem{}, err
		}
	} else if p.tok.Type == TokIdent {
		item.Alias = p.tok.Text
		if err := p.advance(); err != nil {
			return SelectItem{}, err
		}
	}
	return item, nil
}

// Expression grammar, loosest to tightest:
//
//	expr     = and { OR and }
//	and      = not { AND not }
//	not      = NOT not | predicate
//	predicate= additive [ compOp additive | [NOT] BETWEEN .. | [NOT] IN (..) | [NOT] LIKE .. | IS [NOT] NULL ]
//	additive = mult { (+|-|'||') mult }
//	mult     = unary { (*|/|%) unary }
//	unary    = - unary | primary
func (p *parser) parseExpr() (Expr, error) {
	if err := p.nest(); err != nil {
		return nil, err
	}
	defer p.unnest()
	return p.leftAssoc(p.parseAnd, func() (BinaryOp, bool) { return OpOr, p.isKeyword("OR") })
}

func (p *parser) parseAnd() (Expr, error) {
	return p.leftAssoc(p.parseNot, func() (BinaryOp, bool) { return OpAnd, p.isKeyword("AND") })
}

// leftAssoc parses `operand { op operand }` into a left-deep tree. The loop
// nests nothing, but its tree does: a level per link, which every walker
// recurses through and which prints as a pair of parentheses — how the
// storage side meets a pushed predicate. So each link counts against
// maxExprDepth on top of the deepest nesting under it, as a function of the
// tree alone (the printed form parses to the same verdict), and a chain
// storage would refuse is refused at the door with the same error. One
// level is held back for the parentheses a comparison operand prints in.
func (p *parser) leftAssoc(operand func() (Expr, error), opAt func() (BinaryOp, bool)) (Expr, error) {
	outer := p.peak
	p.peak = p.depth - p.parens
	defer func() { p.peak = max(p.peak, outer) }()
	l, err := operand()
	if err != nil {
		return nil, err
	}
	for {
		op, ok := opAt()
		if !ok {
			return l, nil
		}
		if p.peak++; p.peak >= maxExprDepth {
			return nil, p.errf("expression nests deeper than %d levels", maxExprDepth)
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := operand()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: op, L: l, R: r}
	}
}

// prefixed parses a run of one prefix operator (NOT, unary minus) over its
// operand, wrapping it once per operator. Like a leftAssoc chain the run is
// counted, not recursed: a tree level per operator on top of the deepest
// nesting under it, as its printed form nests one parenthesis per operator.
func (p *parser) prefixed(at func() bool, operand func() (Expr, error), wrap func(Expr) Expr) (Expr, error) {
	n := 0
	for ; at(); n++ {
		if p.depth-p.parens+n >= maxExprDepth {
			return nil, p.errf("expression nests deeper than %d levels", maxExprDepth)
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	if n == 0 {
		return operand()
	}
	outer := p.peak
	p.peak = p.depth - p.parens
	defer func() { p.peak = max(p.peak, outer) }()
	x, err := operand()
	if err != nil {
		return nil, err
	}
	if p.peak += n; p.peak >= maxExprDepth {
		return nil, p.errf("expression nests deeper than %d levels", maxExprDepth)
	}
	for ; n > 0; n-- {
		x = wrap(x)
	}
	return x, nil
}

func (p *parser) parseNot() (Expr, error) {
	return p.prefixed(func() bool { return p.isKeyword("NOT") }, p.parsePredicate,
		func(x Expr) Expr { return &Unary{Op: "NOT", X: x} })
}

var compOps = map[string]BinaryOp{
	"=": OpEq, "!=": OpNe, "<>": OpNe, "<": OpLt, "<=": OpLe, ">": OpGt, ">=": OpGe,
}

func (p *parser) parsePredicate() (Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	if p.tok.Type == TokOp {
		if op, ok := compOps[p.tok.Text]; ok {
			if err := p.advance(); err != nil {
				return nil, err
			}
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			return &Binary{Op: op, L: l, R: r}, nil
		}
	}
	not := false
	if p.isKeyword("NOT") {
		// lookahead for NOT BETWEEN / NOT IN / NOT LIKE
		if err := p.advance(); err != nil {
			return nil, err
		}
		not = true
	}
	switch {
	case p.isKeyword("BETWEEN"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		lo, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &Between{X: l, Lo: lo, Hi: hi, Not: not}, nil
	case p.isKeyword("IN"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		var list []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			list = append(list, e)
			if p.isOp(",") {
				if err := p.advance(); err != nil {
					return nil, err
				}
				continue
			}
			break
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return &In{X: l, List: list, Not: not}, nil
	case p.isKeyword("LIKE"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		pat, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &Like{X: l, Pattern: pat, Not: not}, nil
	case p.isKeyword("IS"):
		if not {
			return nil, p.errf("NOT before IS is not supported; use IS NOT NULL")
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		isNot := false
		if p.isKeyword("NOT") {
			isNot = true
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
		if err := p.expectKeyword("NULL"); err != nil {
			return nil, err
		}
		return &IsNull{X: l, Not: isNot}, nil
	}
	if not {
		return &Unary{Op: "NOT", X: l}, nil
	}
	return l, nil
}

func (p *parser) parseAdditive() (Expr, error) {
	return p.leftAssoc(p.parseMult, func() (BinaryOp, bool) {
		switch {
		case p.isOp("+"):
			return OpAdd, true
		case p.isOp("-"):
			return OpSub, true
		}
		return OpConcat, p.isOp("||")
	})
}

func (p *parser) parseMult() (Expr, error) {
	return p.leftAssoc(p.parseUnary, func() (BinaryOp, bool) {
		switch {
		case p.isOp("*"):
			return OpMul, true
		case p.isOp("/"):
			return OpDiv, true
		}
		return OpMod, p.isOp("%")
	})
}

func (p *parser) parseUnary() (Expr, error) {
	return p.prefixed(func() bool { return p.isOp("-") }, p.parsePrimary, negate)
}

// negate wraps x in a unary minus, folding the negation of a numeric literal
// so -950 is a Literal.
func negate(x Expr) Expr {
	if lit, ok := x.(*Literal); ok {
		switch lit.Val.Kind() {
		case value.KindInt:
			return &Literal{Val: value.Int(-lit.Val.AsInt())}
		case value.KindFloat:
			f := -lit.Val.AsFloat()
			if f == 0 {
				// Normalize -0.0: it would print as "-0", which re-parses
				// as the integer 0 (so printing would not round-trip).
				f = 0
			}
			return &Literal{Val: value.Float(f)}
		}
	}
	return &Unary{Op: "-", X: x}
}

var aggFuncs = map[string]AggFunc{
	"SUM": AggSum, "COUNT": AggCount, "MIN": AggMin, "MAX": AggMax, "AVG": AggAvg,
}

var castKinds = map[string]value.Kind{
	"INT": value.KindInt, "INTEGER": value.KindInt,
	"FLOAT": value.KindFloat, "DECIMAL": value.KindFloat,
	"STRING": value.KindString, "TIMESTAMP": value.KindDate,
	"BOOL": value.KindBool,
}

func (p *parser) parsePrimary() (Expr, error) {
	switch {
	case p.isOp("("):
		if err := p.advance(); err != nil {
			return nil, err
		}
		p.parens++
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		p.parens--
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return e, nil
	case p.tok.Type == TokNumber:
		text := p.tok.Text
		if err := p.advance(); err != nil {
			return nil, err
		}
		if !strings.ContainsAny(text, ".eE") {
			i, err := strconv.ParseInt(text, 10, 64)
			if err == nil {
				return &Literal{Val: value.Int(i)}, nil
			}
		}
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return nil, p.errf("bad number %q", text)
		}
		return &Literal{Val: value.Float(f)}, nil
	case p.tok.Type == TokString:
		s := p.tok.Text
		if err := p.advance(); err != nil {
			return nil, err
		}
		return &Literal{Val: value.Str(s)}, nil
	case p.isKeyword("NULL"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		return &Literal{Val: value.Null()}, nil
	case p.isKeyword("TRUE"), p.isKeyword("FALSE"):
		b := p.tok.Text == "TRUE"
		if err := p.advance(); err != nil {
			return nil, err
		}
		return &Literal{Val: value.Bool(b)}, nil
	case p.isKeyword("DATE"), p.isKeyword("TIMESTAMP"):
		// DATE '1994-01-01'
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.tok.Type != TokString {
			return nil, p.errf("expected date string literal, got %s", p.tok)
		}
		v, err := value.ParseDate(p.tok.Text)
		if err != nil {
			return nil, p.errf("bad date literal %q", p.tok.Text)
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		return &Literal{Val: v}, nil
	case p.isKeyword("CASE"):
		return p.parseCase()
	case p.isKeyword("CAST"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AS"); err != nil {
			return nil, err
		}
		if p.tok.Type != TokKeyword {
			return nil, p.errf("expected type name, got %s", p.tok)
		}
		kind, ok := castKinds[p.tok.Text]
		if !ok {
			return nil, p.errf("unsupported cast type %s", p.tok.Text)
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return &Cast{X: x, To: kind}, nil
	case p.isKeyword("EXTRACT"):
		// EXTRACT(YEAR FROM expr) -> Call{EXTRACT, ['YEAR', expr]}
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		if p.tok.Type != TokIdent {
			return nil, p.errf("expected date part (YEAR/MONTH/DAY), got %s", p.tok)
		}
		unit := strings.ToUpper(p.tok.Text)
		if unit != "YEAR" && unit != "MONTH" && unit != "DAY" {
			return nil, p.errf("unsupported EXTRACT part %q", unit)
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("FROM"); err != nil {
			return nil, err
		}
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return &Call{Name: "EXTRACT", Args: []Expr{&Literal{Val: value.Str(unit)}, x}}, nil
	case p.isKeyword("SUBSTRING"):
		name := p.tok.Text
		if err := p.advance(); err != nil {
			return nil, err
		}
		args, err := p.parseArgs()
		if err != nil {
			return nil, err
		}
		if len(args) != 2 && len(args) != 3 {
			return nil, p.errf("SUBSTRING takes 2 or 3 arguments, got %d", len(args))
		}
		return &Call{Name: name, Args: args}, nil
	case p.tok.Type == TokKeyword:
		if fn, ok := aggFuncs[p.tok.Text]; ok {
			if err := p.advance(); err != nil {
				return nil, err
			}
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			var x Expr
			if p.isOp("*") {
				if err := p.advance(); err != nil {
					return nil, err
				}
				x = &Star{}
			} else {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				x = e
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return &Aggregate{Func: fn, X: x}, nil
		}
		return nil, p.errf("unexpected keyword %s", p.tok.Text)
	case p.tok.Type == TokIdent:
		name := p.tok.Text
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.isOp("(") {
			args, err := p.parseArgs()
			if err != nil {
				return nil, err
			}
			return &Call{Name: strings.ToUpper(name), Args: args}, nil
		}
		if p.isOp(".") {
			if err := p.advance(); err != nil {
				return nil, err
			}
			if p.tok.Type != TokIdent && p.tok.Type != TokOp {
				return nil, p.errf("expected column after %q., got %s", name, p.tok)
			}
			if p.isOp("*") {
				if err := p.advance(); err != nil {
					return nil, err
				}
				return &Star{}, nil
			}
			col := p.tok.Text
			if err := p.advance(); err != nil {
				return nil, err
			}
			return &Column{Qualifier: name, Name: col}, nil
		}
		return &Column{Name: name}, nil
	default:
		return nil, p.errf("unexpected token %s", p.tok)
	}
}

func (p *parser) parseArgs() ([]Expr, error) {
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	var args []Expr
	if p.isOp(")") {
		return args, p.advance()
	}
	for {
		a, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		args = append(args, a)
		if p.isOp(",") {
			if err := p.advance(); err != nil {
				return nil, err
			}
			continue
		}
		break
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return args, nil
}

func (p *parser) parseCase() (Expr, error) {
	if err := p.advance(); err != nil { // consume CASE
		return nil, err
	}
	c := &Case{}
	for p.isKeyword("WHEN") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("THEN"); err != nil {
			return nil, err
		}
		res, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Whens = append(c.Whens, When{Cond: cond, Result: res})
	}
	if len(c.Whens) == 0 {
		return nil, p.errf("CASE requires at least one WHEN arm")
	}
	if p.isKeyword("ELSE") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Else = e
	}
	if err := p.expectKeyword("END"); err != nil {
		return nil, err
	}
	return c, nil
}
