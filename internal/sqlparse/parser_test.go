package sqlparse

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"pushdowndb/internal/value"
)

func mustParse(t *testing.T, src string) *Select {
	t.Helper()
	s, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return s
}

func TestLexerBasics(t *testing.T) {
	toks, err := Tokens("SELECT a, 1.5 FROM t WHERE x <> 'o''k' -- comment\n AND y >= 2")
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	for _, tok := range toks {
		if tok.Type != TokEOF {
			texts = append(texts, tok.Text)
		}
	}
	want := []string{"SELECT", "a", ",", "1.5", "FROM", "t", "WHERE", "x", "<>", "o'k", "AND", "y", ">=", "2"}
	if strings.Join(texts, "|") != strings.Join(want, "|") {
		t.Errorf("tokens = %v, want %v", texts, want)
	}
}

func TestLexerErrors(t *testing.T) {
	for _, src := range []string{"'unterminated", "\"unterminated", "SELECT @"} {
		if _, err := Tokens(src); err == nil {
			t.Errorf("Tokens(%q): expected error", src)
		}
	}
}

func TestLexerNumberForms(t *testing.T) {
	for _, src := range []string{"1", "1.5", "0.25", "1e3", "1.5E-2", "2E+4"} {
		toks, err := Tokens(src)
		if err != nil {
			t.Fatalf("Tokens(%q): %v", src, err)
		}
		if toks[0].Type != TokNumber || toks[0].Text != src {
			t.Errorf("Tokens(%q) = %v", src, toks[0])
		}
	}
}

func TestParseSimpleSelect(t *testing.T) {
	s := mustParse(t, "SELECT * FROM S3Object")
	if s.Table != "S3Object" || len(s.Items) != 1 {
		t.Fatalf("bad select: %+v", s)
	}
	if _, ok := s.Items[0].Expr.(*Star); !ok {
		t.Error("expected star item")
	}
	if s.Limit != -1 || s.Where != nil {
		t.Error("unexpected limit/where")
	}
}

func TestParseProjectionAliases(t *testing.T) {
	s := mustParse(t, "SELECT c_custkey AS k, c_acctbal bal FROM customer")
	if s.Items[0].Alias != "k" || s.Items[1].Alias != "bal" {
		t.Errorf("aliases = %q, %q", s.Items[0].Alias, s.Items[1].Alias)
	}
}

func TestParseWherePrecedence(t *testing.T) {
	s := mustParse(t, "SELECT a FROM t WHERE a = 1 OR b = 2 AND c = 3")
	or, ok := s.Where.(*Binary)
	if !ok || or.Op != OpOr {
		t.Fatalf("top must be OR, got %v", s.Where)
	}
	and, ok := or.R.(*Binary)
	if !ok || and.Op != OpAnd {
		t.Fatalf("right of OR must be AND, got %v", or.R)
	}
}

func TestParseArithmeticPrecedence(t *testing.T) {
	e, err := ParseExpr("1 + 2 * 3")
	if err != nil {
		t.Fatal(err)
	}
	add := e.(*Binary)
	if add.Op != OpAdd {
		t.Fatalf("top = %v", add.Op)
	}
	if mul := add.R.(*Binary); mul.Op != OpMul {
		t.Fatalf("right = %v", mul.Op)
	}
}

func TestParseBloomStyleQuery(t *testing.T) {
	src := "SELECT o_totalprice FROM S3Object WHERE SUBSTRING('10001', ((69 * CAST(o_custkey AS INT) + 92) % 97) % 5 + 1, 1) = '1'"
	s := mustParse(t, src)
	if s.Where == nil {
		t.Fatal("missing where")
	}
	// Render and reparse: must be stable.
	again := mustParse(t, s.String())
	if again.String() != s.String() {
		t.Errorf("render not stable:\n%s\n%s", s.String(), again.String())
	}
}

func TestParseCaseWhen(t *testing.T) {
	src := "SELECT SUM(CASE WHEN c_nationkey = 0 THEN c_acctbal ELSE 0 END) FROM customer"
	s := mustParse(t, src)
	agg, ok := s.Items[0].Expr.(*Aggregate)
	if !ok || agg.Func != AggSum {
		t.Fatalf("expected SUM aggregate, got %T", s.Items[0].Expr)
	}
	c, ok := agg.X.(*Case)
	if !ok || len(c.Whens) != 1 || c.Else == nil {
		t.Fatalf("bad case: %+v", agg.X)
	}
}

func TestParseGroupOrderLimit(t *testing.T) {
	s := mustParse(t, "SELECT c_nationkey, SUM(c_acctbal) FROM customer GROUP BY c_nationkey ORDER BY c_nationkey DESC, c_custkey LIMIT 10")
	if len(s.GroupBy) != 1 || len(s.OrderBy) != 2 || s.Limit != 10 {
		t.Fatalf("bad clauses: %+v", s)
	}
	if !s.OrderBy[0].Desc || s.OrderBy[1].Desc {
		t.Error("order directions wrong")
	}
}

func TestParseBetweenInLikeIsNull(t *testing.T) {
	s := mustParse(t, "SELECT a FROM t WHERE a BETWEEN 1 AND 5 AND b IN (1, 2, 3) AND c LIKE 'PROMO%' AND d IS NOT NULL AND e NOT IN (4) AND f NOT BETWEEN 0 AND 1 AND g NOT LIKE '%x' AND h IS NULL")
	rendered := s.Where.String()
	for _, frag := range []string{"BETWEEN", "IN (1, 2, 3)", "LIKE 'PROMO%'", "IS NOT NULL", "NOT IN (4)", "NOT BETWEEN", "NOT LIKE", "IS NULL"} {
		if !strings.Contains(rendered, frag) {
			t.Errorf("rendered %q missing %q", rendered, frag)
		}
	}
}

func TestParseDateLiteral(t *testing.T) {
	e, err := ParseExpr("o_orderdate < DATE '1995-01-01'")
	if err != nil {
		t.Fatal(err)
	}
	cmp := e.(*Binary)
	lit := cmp.R.(*Literal)
	if lit.Val.Kind() != value.KindDate || lit.Val.String() != "1995-01-01" {
		t.Errorf("bad date literal: %v", lit.Val)
	}
}

func TestParseNegativeNumberFolding(t *testing.T) {
	e, err := ParseExpr("c_acctbal <= -950")
	if err != nil {
		t.Fatal(err)
	}
	lit := e.(*Binary).R.(*Literal)
	if lit.Val.Kind() != value.KindInt || lit.Val.AsInt() != -950 {
		t.Errorf("expected folded -950, got %v", lit.Val)
	}
}

func TestParseCountStar(t *testing.T) {
	s := mustParse(t, "SELECT COUNT(*) FROM lineitem")
	agg := s.Items[0].Expr.(*Aggregate)
	if agg.Func != AggCount {
		t.Fatal("not COUNT")
	}
	if _, ok := agg.X.(*Star); !ok {
		t.Fatal("not COUNT(*)")
	}
}

func TestParseQualifiedColumns(t *testing.T) {
	e, err := ParseExpr("s.c_custkey = 5")
	if err != nil {
		t.Fatal(err)
	}
	col := e.(*Binary).L.(*Column)
	if col.Qualifier != "s" || col.Name != "c_custkey" {
		t.Errorf("bad qualified column: %+v", col)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT FROM t",
		"SELECT a FROM",
		"SELECT a FROM t WHERE",
		"SELECT a FROM t LIMIT x",
		"SELECT a FROM t GROUP",
		"SELECT CAST(a AS VARCHAR2) FROM t",
		"SELECT SUBSTRING(a) FROM t",
		"SELECT CASE END FROM t",
		"SELECT a FROM t trailing garbage",
		"SELECT a b c FROM t",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q): expected error", src)
		}
	}
}

func TestContainsAggregate(t *testing.T) {
	s := mustParse(t, "SELECT 100 * SUM(a) / SUM(b) FROM t")
	if !s.HasAggregates() {
		t.Error("should detect aggregates in arithmetic")
	}
	s2 := mustParse(t, "SELECT a + b FROM t")
	if s2.HasAggregates() {
		t.Error("false positive aggregate")
	}
}

func TestColumnsCollection(t *testing.T) {
	e, err := ParseExpr("CASE WHEN a = 1 THEN b ELSE c + d END + SUBSTRING(e, 1, 2)")
	if err != nil {
		t.Fatal(err)
	}
	got := Columns(e)
	want := []string{"a", "b", "c", "d", "e"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("Columns = %v, want %v", got, want)
	}
}

// Property: rendering a parsed statement and reparsing it is a fixed point.
func TestQuickRenderReparse(t *testing.T) {
	seeds := []string{
		"SELECT * FROM S3Object",
		"SELECT a, b AS x FROM t WHERE a < 5 AND b LIKE '%q' ORDER BY a DESC LIMIT 3",
		"SELECT SUM(CASE WHEN g = 1 THEN v ELSE 0 END), COUNT(*) FROM t WHERE d >= DATE '1994-01-01'",
		"SELECT CAST(a AS INT) % 7 FROM t WHERE a BETWEEN 1 AND 10 OR b IN ('x', 'y')",
		"SELECT AVG(0.2 * l_quantity) FROM lineitem WHERE NOT (a = 1)",
	}
	for _, src := range seeds {
		s1 := mustParse(t, src)
		s2 := mustParse(t, s1.String())
		if s1.String() != s2.String() {
			t.Errorf("not a fixed point:\n  %s\n  %s", s1.String(), s2.String())
		}
	}
}

// Property: the lexer never loops forever and token positions increase.
func TestQuickLexerProgress(t *testing.T) {
	f := func(raw []byte) bool {
		// Constrain to mostly printable input to hit interesting paths.
		src := strings.Map(func(r rune) rune {
			if r >= 32 && r < 127 {
				return r
			}
			return ' '
		}, string(raw))
		l := NewLexer(src)
		last := -1
		for i := 0; i < len(src)+2; i++ {
			tok, err := l.Next()
			if err != nil {
				return true // rejecting is fine
			}
			if tok.Type == TokEOF {
				return true
			}
			if tok.Pos <= last && i > 0 {
				return false
			}
			last = tok.Pos
		}
		return false // did not terminate
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// A request body of nothing but "(" must be refused at the depth cap, not
// parsed for seconds: 400 000 levels fit under pushdownd's 1 MiB body
// limit and took 3.4 s before the cap existed.
func TestNestingDepthIsCapped(t *testing.T) {
	nested := func(open, close string, n int) string {
		return "SELECT * FROM t WHERE " + strings.Repeat(open, n) + "a = 1" + strings.Repeat(close, n)
	}
	for _, sql := range []string{
		nested("(", ")", 400_000),
		nested("NOT ", "", 400_000),
		nested("- ", "", 400_000),
		nested("ABS(", ")", 400_000),
	} {
		start := time.Now()
		_, err := Parse(sql)
		if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
			t.Errorf("%.20q...: refused after %v, want well under 100ms", sql[22:], elapsed)
		}
		if err == nil || !strings.Contains(err.Error(), "nests deeper") {
			t.Errorf("%.20q...: err = %v, want the nesting-depth error", sql[22:], err)
		}
	}
	if _, err := Parse(nested("(", ")", maxExprDepth-1)); err != nil {
		t.Errorf("nesting just under the cap: %v", err)
	}
}

// A left-deep operator chain nests nothing while it parses, but its tree is
// as deep as it is long and prints one pair of parentheses per link, which
// is how storage meets it in a pushed predicate. The door refuses exactly
// the chains storage would: whatever parses here re-parses from its printed
// form, at the boundary too.
func TestChainLengthIsCapped(t *testing.T) {
	chain := func(n int, term func(i int) string, op string) string {
		terms := make([]string, n)
		for i := range terms {
			terms[i] = term(i)
		}
		return "SELECT k FROM t WHERE " + strings.Join(terms, op)
	}
	cmp := func(i int) string { return fmt.Sprintf("x = %d", i) }
	num := func(i int) string { return strconv.Itoa(i) }
	for name, build := range map[string]func(n int) string{
		"OR":  func(n int) string { return chain(n, cmp, " OR ") },
		"AND": func(n int) string { return chain(n, cmp, " AND ") },
		"+":   func(n int) string { return chain(n, num, " + ") + " > 0" },
		"*":   func(n int) string { return chain(n, num, " * ") + " > 0" },
		"||":  func(n int) string { return chain(n, num, " || ") + " = 'x'" },
		// A prefix run is a level per operator too, and prints as one pair
		// of parentheses per level, not two.
		"NOT":     func(n int) string { return "SELECT k FROM t WHERE " + strings.Repeat("NOT ", n-1) + "x = 1" },
		"unary -": func(n int) string { return "SELECT k FROM t WHERE " + strings.Repeat("- ", n-1) + "x > 0" },
		// The links count on top of what nests under them, and a
		// parenthesised operand is no deeper than its tree.
		"calls under +": func(n int) string {
			return "SELECT k FROM t WHERE " + strings.Repeat("ABS(", 499) + "1" + strings.Repeat(")", 499) + " + " + chain(n-500, num, " + ")[22:] + " > 0"
		},
		"parens under OR": func(n int) string {
			return chain(n-1, cmp, " OR ") + " OR " + strings.Repeat("(", 800) + "x = 1" + strings.Repeat(")", 800)
		},
	} {
		sel, err := Parse(build(maxExprDepth - 1))
		if err != nil {
			t.Errorf("%s chain of %d terms: %v", name, maxExprDepth-1, err)
			continue
		}
		if _, err := Parse(sel.String()); err != nil {
			t.Errorf("%s chain of %d terms parses but its printed form does not: %v", name, maxExprDepth-1, err)
		}
		for _, n := range []int{maxExprDepth, 400_000} {
			if _, err := Parse(build(n)); err == nil || !strings.Contains(err.Error(), "nests deeper") {
				t.Errorf("%s chain of %d terms: err = %v, want the nesting-depth error", name, n, err)
			}
		}
	}
}
