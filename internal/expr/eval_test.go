package expr

import (
	"errors"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"pushdowndb/internal/race"
	"pushdowndb/internal/sqlparse"
	"pushdowndb/internal/value"
)

// MapEnv is a test row given by column name: its header is its names,
// sorted, and row lays it out under a header (a name it lacks is NULL).
type MapEnv map[string]value.Value

func (m MapEnv) header() []string {
	var header []string
	for name := range m {
		header = append(header, name)
	}
	slices.Sort(header)
	return header
}

func (m MapEnv) row(header []string) []value.Value {
	row := make([]value.Value, len(header))
	for i, h := range header {
		row[i] = m[h]
	}
	return row
}

// bound is an evaluator bound to exprs.
func bound(index func(string) int, exprs ...sqlparse.Expr) (*Evaluator, error) {
	ev := &Evaluator{}
	return ev, ev.Bind(index, exprs...)
}

// evalIn binds src to env's header and evaluates it over env's row.
func evalIn(t *testing.T, src string, env MapEnv) (value.Value, error) {
	t.Helper()
	e, err := sqlparse.ParseExpr(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	header := env.header()
	ev, err := bound(sqlparse.NewNames(header).Index, e)
	if err != nil {
		return value.Null(), err
	}
	return ev.Eval(e, env.row(header))
}

func evalStr(t *testing.T, src string, env MapEnv) value.Value {
	t.Helper()
	v, err := evalIn(t, src, env)
	if err != nil {
		t.Fatalf("eval %q: %v", src, err)
	}
	return v
}

func evalErr(t *testing.T, src string, env MapEnv) error {
	t.Helper()
	_, err := evalIn(t, src, env)
	return err
}

// groupsOver is a table over keys and items whose add reads rows laid out
// as header.
func groupsOver(t *testing.T, header []string, keys, items []sqlparse.Expr) *groupTable {
	t.Helper()
	ev, err := bound(sqlparse.NewNames(header).Index, items...)
	if err != nil {
		t.Fatal(err)
	}
	g, err := newGroupTable(ev, keys, items)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestArithmetic(t *testing.T) {
	cases := map[string]value.Value{
		"1 + 2":           value.Int(3),
		"7 - 10":          value.Int(-3),
		"6 * 7":           value.Int(42),
		"7 / 2":           value.Int(3),
		"7.0 / 2":         value.Float(3.5),
		"7 % 3":           value.Int(1),
		"-7 % 3":          value.Int(2), // non-negative modulo
		"1.5 + 1":         value.Float(2.5),
		"2 * 3 + 4":       value.Int(10),
		"2 + 3 * 4":       value.Int(14),
		"(2 + 3) * 4":     value.Int(20),
		"-(2 + 3)":        value.Int(-5),
		"10 % 4 % 3":      value.Int(2),
		"'5' + 2":         value.Int(7), // CSV string coercion
		"' +5 ' * '2'":    value.Int(10),
		"'1.5' * 2":       value.Float(3),
		"'1e2' + 1":       value.Float(101),
		"-'5'":            value.Int(-5), // a CSV cell negates as arithmetic reads it
		"- -' 2.5 '":      value.Float(2.5),
		"'a' || 'b'":      value.Str("ab"),
		"1 || 'x'":        value.Str("1x"),
		"2.5 % 1":         value.Float(0.5),
		"100.0 * 2 / 400": value.Float(0.5),
	}
	// Past int64, digits are a float, not an integer wrapped around.
	cases["'92233720368547758070' / 10"] = value.Float(9223372036854775807)
	for src, want := range cases {
		got := evalStr(t, src, MapEnv{})
		if got.Kind() != want.Kind() || value.Compare(got, want) != 0 {
			t.Errorf("%s = %v (%v), want %v (%v)", src, got, got.Kind(), want, want.Kind())
		}
	}
}

func TestArithmeticErrors(t *testing.T) {
	// Text is an operand only when the whole of it is a number, the rule
	// comparison and CAST apply: a numeric prefix does not count.
	for _, src := range []string{"1 / 0", "1 % 0", "1.0 / 0", "'a' + 1", "'12abc' + 1", "'1994-01-01' + 1", "'1e400' * 1", "'' + 1", "-'12abc'", "-'1994-01-01'"} {
		if evalErr(t, src, MapEnv{}) == nil {
			t.Errorf("%s: expected error", src)
		}
	}
}

func TestComparisons(t *testing.T) {
	env := MapEnv{"a": value.Int(5), "s": value.Str("BUILDING"), "d": value.DateFromYMD(1994, 6, 1)}
	trueCases := []string{
		"a = 5", "a != 4", "a <> 4", "a < 6", "a <= 5", "a > 4", "a >= 5",
		"s = 'BUILDING'", "d < DATE '1995-01-01'", "d >= DATE '1994-01-01'",
		"a BETWEEN 1 AND 5", "a IN (3, 4, 5)", "a NOT IN (1, 2)",
		"s LIKE 'BUILD%'", "s LIKE '%ING'", "s LIKE 'B_ILDING'", "s NOT LIKE 'X%'",
		"NOT (a = 4)", "a = 5 AND s = 'BUILDING'", "a = 4 OR s = 'BUILDING'",
	}
	for _, src := range trueCases {
		if v := evalStr(t, src, env); !value.Truthy(v) {
			t.Errorf("%s should be true, got %v", src, v)
		}
	}
	falseCases := []string{"a = 4", "a BETWEEN 6 AND 9", "s LIKE 'ING%'", "a NOT BETWEEN 1 AND 9"}
	for _, src := range falseCases {
		if v := evalStr(t, src, env); value.Truthy(v) {
			t.Errorf("%s should be false", src)
		}
	}
}

func TestThreeValuedLogic(t *testing.T) {
	env := MapEnv{"n": value.Null(), "t": value.Bool(true), "f": value.Bool(false)}
	if v := evalStr(t, "n = 1", env); !v.IsNull() {
		t.Error("NULL = 1 should be NULL")
	}
	if v := evalStr(t, "f AND n = 1", env); v.Kind() != value.KindBool || v.AsBool() {
		t.Errorf("FALSE AND NULL = %v, want FALSE", v)
	}
	if v := evalStr(t, "t OR n = 1", env); !value.Truthy(v) {
		t.Error("TRUE OR NULL should be TRUE")
	}
	if v := evalStr(t, "t AND n = 1", env); !v.IsNull() {
		t.Error("TRUE AND NULL should be NULL")
	}
	if v := evalStr(t, "n IS NULL", env); !value.Truthy(v) {
		t.Error("NULL IS NULL should be true")
	}
	if v := evalStr(t, "t IS NOT NULL", env); !value.Truthy(v) {
		t.Error("TRUE IS NOT NULL should be true")
	}
	if v := evalStr(t, "NOT n = 1", env); !v.IsNull() {
		t.Error("NOT NULL should be NULL")
	}
}

func TestCase(t *testing.T) {
	env := MapEnv{"g": value.Int(1), "v": value.Float(2.5)}
	got := evalStr(t, "CASE WHEN g = 0 THEN 0 WHEN g = 1 THEN v ELSE -1 END", env)
	if got.AsFloat() != 2.5 {
		t.Errorf("case = %v", got)
	}
	got = evalStr(t, "CASE WHEN g = 9 THEN 1 END", env)
	if !got.IsNull() {
		t.Errorf("case without else should be NULL, got %v", got)
	}
}

func TestCasts(t *testing.T) {
	env := MapEnv{"s": value.Str("42")}
	if v := evalStr(t, "CAST(s AS INT)", env); v.AsInt() != 42 {
		t.Errorf("cast = %v", v)
	}
	if v := evalStr(t, "CAST('1994-01-01' AS TIMESTAMP)", env); v.Kind() != value.KindDate {
		t.Errorf("cast to date = %v", v)
	}
	if v := evalStr(t, "CAST(42 AS STRING)", env); v.AsString() != "42" {
		t.Errorf("cast to string = %v", v)
	}
}

func TestStringFuncs(t *testing.T) {
	env := MapEnv{"s": value.Str("hello")}
	cases := map[string]string{
		"SUBSTRING(s, 2, 3)":  "ell",
		"SUBSTRING(s, 1, 1)":  "h",
		"SUBSTRING(s, 4)":     "lo",
		"SUBSTRING(s, 0, 2)":  "h", // start before 1 consumes length
		"SUBSTRING(s, 99, 2)": "",
		"SUBSTRING(s, 2, 0)":  "",
		"UPPER(s)":            "HELLO",
		"LOWER('ABC')":        "abc",
		"TRIM('  x  ')":       "x",
		"SUBSTRING('10011', ((3 * 4 + 1) % 7) % 5 + 1, 1)": "0", // bloom-style probe: ((13%7)%5)+1 = 2
		"SUBSTRING('10011', ((3 * 4 + 2) % 7) % 5 + 1, 1)": "1", // ((14%7)%5)+1 = 1
		"SUBSTRING('10011', ((3 * 1 + 0) % 7) % 5 + 1, 1)": "1", // position 4
	}
	for src, want := range cases {
		if got := evalStr(t, src, env).String(); got != want {
			t.Errorf("%s = %q, want %q", src, got, want)
		}
	}
	if v := evalStr(t, "LENGTH(s)", env); v.AsInt() != 5 {
		t.Errorf("LENGTH = %v", v)
	}
	if v := evalStr(t, "ABS(-3)", env); v.AsInt() != 3 {
		t.Errorf("ABS = %v", v)
	}
	if v := evalStr(t, "ABS(-2.5)", env); v.AsFloat() != 2.5 {
		t.Errorf("ABS float = %v", v)
	}
}

func TestUnknownColumnAndFunction(t *testing.T) {
	if err := evalErr(t, "nosuch + 1", MapEnv{}); !errors.Is(err, ErrUnknownColumn) {
		t.Errorf("unknown column: %v, want ErrUnknownColumn", err)
	}
	if evalErr(t, "NOSUCHFN(1)", MapEnv{}) == nil {
		t.Error("unknown function should error")
	}
}

func TestLikeMatcher(t *testing.T) {
	cases := []struct {
		pat, s string
		want   bool
	}{
		{"%", "", true},
		{"%", "anything", true},
		{"a%", "abc", true},
		{"%c", "abc", true},
		{"a%c", "abc", true},
		{"a%c", "ac", true},
		{"a_c", "abc", true},
		{"a_c", "ac", false},
		{"abc", "abc", true},
		{"abc", "abd", false},
		{"%PROMO%", "xxPROMOyy", true},
		{"%PROMO%", "PROM", false},
		{"%a%b%", "xaybz", true},
		{"", "", true},
		{"", "x", false},
	}
	for _, c := range cases {
		if got := likeMatch(c.pat, c.s); got != c.want {
			t.Errorf("likeMatch(%q, %q) = %v, want %v", c.pat, c.s, got, c.want)
		}
	}
}

func TestAggStates(t *testing.T) {
	sum := NewAggState(sqlparse.AggSum)
	for _, v := range []value.Value{value.Int(1), value.Int(2), value.Null(), value.Int(3)} {
		if err := sum.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	if got := sum.Final(); got.AsInt() != 6 {
		t.Errorf("sum = %v", got)
	}

	sumF := NewAggState(sqlparse.AggSum)
	_ = sumF.Add(value.Int(1))
	_ = sumF.Add(value.Float(0.5))
	if got := sumF.Final(); got.AsFloat() != 1.5 {
		t.Errorf("mixed sum = %v", got)
	}

	avg := NewAggState(sqlparse.AggAvg)
	for i := 1; i <= 4; i++ {
		_ = avg.Add(value.Int(int64(i)))
	}
	if got := avg.Final(); got.AsFloat() != 2.5 {
		t.Errorf("avg = %v", got)
	}

	count := NewAggState(sqlparse.AggCount)
	_ = count.Add(value.Int(9))
	_ = count.Add(value.Null())
	if got := count.Final(); got.AsInt() != 1 {
		t.Errorf("count skips NULL: %v", got)
	}

	mn, mx := NewAggState(sqlparse.AggMin), NewAggState(sqlparse.AggMax)
	for _, v := range []value.Value{value.Float(3), value.Float(-1), value.Float(7)} {
		_ = mn.Add(v)
		_ = mx.Add(v)
	}
	if mn.Final().AsFloat() != -1 || mx.Final().AsFloat() != 7 {
		t.Errorf("min/max = %v/%v", mn.Final(), mx.Final())
	}

	empty := NewAggState(sqlparse.AggSum)
	if !empty.Final().IsNull() {
		t.Error("SUM of empty is NULL")
	}
	emptyCount := NewAggState(sqlparse.AggCount)
	if emptyCount.Final().AsInt() != 0 {
		t.Error("COUNT of empty is 0")
	}
}

// TestAggSumDoesNotAllocate pins the claim bigSum.add's comment makes, and
// that the two-buffer sum is the same exact sum: the values span the whole
// float64 exponent range and each pass over them adds exactly 1.
func TestAggSumDoesNotAllocate(t *testing.T) {
	sum := NewAggState(sqlparse.AggSum)
	vals := []value.Value{value.Float(1e308), value.Float(5e-324), value.Int(1), value.Float(-1e308), value.Float(0.25),
		value.Float(-5e-324), value.Float(-0.25), value.Str("2.5"), value.Str(" -2.5 ")}
	add := func() {
		for _, v := range vals {
			if err := sum.Add(v); err != nil {
				t.Fatal(err)
			}
		}
	}
	add() // grows both buffers to the sum's full width
	add()
	if !race.Enabled {
		if n := testing.AllocsPerRun(50, add); n != 0 {
			t.Errorf("AggState.Add allocates %v times over %d values, want 0", n, len(vals))
		}
	}
	passes := float64(sum.count) / float64(len(vals))
	if got := sum.Final(); got.Kind() != value.KindFloat || got.AsFloat() != passes {
		t.Errorf("sum = %v after %v passes", got, passes)
	}
}

func TestAggMerge(t *testing.T) {
	a, b := NewAggState(sqlparse.AggSum), NewAggState(sqlparse.AggSum)
	_ = a.Add(value.Int(10))
	_ = b.Add(value.Float(2.5))
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if got := a.Final(); got.AsFloat() != 12.5 {
		t.Errorf("merged sum = %v", got)
	}

	mn1, mn2 := NewAggState(sqlparse.AggMin), NewAggState(sqlparse.AggMin)
	_ = mn2.Add(value.Int(-5))
	if err := mn1.Merge(mn2); err != nil {
		t.Fatal(err)
	}
	if got := mn1.Final(); got.AsInt() != -5 {
		t.Errorf("merged min = %v", got)
	}

	if err := mn1.Merge(NewAggState(sqlparse.AggMax)); err == nil {
		t.Error("mismatched merge should fail")
	}
}

// finishRows collects what a group table finalizes to.
func finishRows(t *testing.T, g *groupTable) [][]value.Value {
	t.Helper()
	var rows [][]value.Value
	if err := g.finish(func(row []value.Value) error {
		rows = append(rows, append([]value.Value(nil), row...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestGroupsExpressionOverAggregates(t *testing.T) {
	// Q14 shape: 100.0 * SUM(CASE ...) / SUM(x)
	sel, err := sqlparse.Parse("SELECT 100.0 * SUM(CASE WHEN promo = 1 THEN v ELSE 0 END) / SUM(v) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	header := []string{"promo", "v"}
	g := groupsOver(t, header, nil, sqlparse.ItemExprs(sel.Items))
	rows := []MapEnv{
		{"promo": value.Int(1), "v": value.Float(10)},
		{"promo": value.Int(0), "v": value.Float(30)},
	}
	for _, row := range rows {
		if err := g.add(g.find(nil), row.row(header)); err != nil {
			t.Fatal(err)
		}
	}
	if got := finishRows(t, g); len(got) != 1 || got[0][0].AsFloat() != 25 {
		t.Errorf("promo revenue = %v, want 25", got)
	}
}

func TestGroupsCountStarAndMerge(t *testing.T) {
	sel, _ := sqlparse.Parse("SELECT COUNT(*), SUM(v) FROM t")
	items := sqlparse.ItemExprs(sel.Items)
	header := []string{"v"}
	g1, g2 := groupsOver(t, header, nil, items), groupsOver(t, header, nil, items)
	if n := len(CollectAggregates(items)); n != 2 {
		t.Fatalf("aggregates = %d", n)
	}
	// Different tables over the same exprs share the same agg nodes, so merge works.
	_ = g1.add(g1.find(nil), []value.Value{value.Int(1)})
	_ = g2.add(g2.find(nil), []value.Value{value.Int(2)})
	_ = g2.add(g2.find(nil), []value.Value{value.Null()})
	if err := g1.merge(g2); err != nil {
		t.Fatal(err)
	}
	if got := finishRows(t, g1); len(got) != 1 || got[0][0].AsInt() != 3 || got[0][1].AsInt() != 3 {
		t.Errorf("count, sum = %v", got)
	}
}

func TestBloomContains(t *testing.T) {
	// bit array of m=16 bits: set bits {1, 5, 9}; hex bytes LSB-first:
	// byte0 bits 1,5 -> 0b00100010 = 0x22; byte1 bit 1 (bit 9) -> 0x02.
	env := MapEnv{"x": value.Int(4)}
	// one hash: ((1*x + 1) % 17) % 16 -> x=4 gives 5 (set), x=5 gives 6 (unset)
	src := "BLOOM_CONTAINS('2202', 16, 17, 1, 1, x)"
	if v := evalStr(t, src, env); !value.Truthy(v) {
		t.Errorf("x=4 should pass")
	}
	env["x"] = value.Int(5)
	if v := evalStr(t, src, env); value.Truthy(v) {
		t.Errorf("x=5 should fail")
	}
	// Invalid hex errors.
	if evalErr(t, "BLOOM_CONTAINS('zz', 16, 17, 1, 1, x)", env) == nil {
		t.Error("bad hex should error")
	}
	if evalErr(t, "BLOOM_CONTAINS('22', 16)", env) == nil {
		t.Error("short arg list should error")
	}
}

// TestBloomContainsBindsItsBits: the bit array is decoded once, at bind, so
// a malformed one is refused before any row, with no header and none to
// evaluate.
func TestBloomContainsBindsItsBits(t *testing.T) {
	for src, want := range map[string]string{
		"BLOOM_CONTAINS('zz', 16, 17, 1, 1, x)":      "bad hex",
		"BLOOM_CONTAINS('2', 16, 17, 1, 1, x)":       "bad hex",
		"BLOOM_CONTAINS(x, 16, 17, 1, 1, x)":         "must be a string literal",
		"BLOOM_CONTAINS(2202, 16, 17, 1, 1, x)":      "must be a string literal",
		"BLOOM_CONTAINS('22' || '02', 16, 17, 1, x)": "BLOOM_CONTAINS(bitsHex",
	} {
		e, err := sqlparse.ParseExpr(src)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := bound(nil, e); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: bind err %v, want %q", src, err, want)
		}
	}
	e, _ := sqlparse.ParseExpr("BLOOM_CONTAINS('2202', 16, 17, 1, 1, x)")
	ev, err := bound(nil, e)
	if err != nil {
		t.Fatal(err)
	}
	// With no header, x reads NULL: the probe of NULL is NULL.
	if v, err := ev.Eval(e, nil); err != nil || !v.IsNull() {
		t.Errorf("probe over no header = %v, %v; want NULL", v, err)
	}
}

func TestEvalBool(t *testing.T) {
	e, _ := sqlparse.ParseExpr("1 = 1")
	ok, err := (&Evaluator{}).EvalBool(e, nil)
	if err != nil || !ok {
		t.Errorf("EvalBool = %v, %v", ok, err)
	}
}

// Property: likeMatch with pattern == string (no wildcards) is equality.
func TestQuickLikeExact(t *testing.T) {
	f := func(s string) bool {
		if strings.ContainsAny(s, "%_") {
			return true
		}
		return likeMatch(s, s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: 'prefix%' matches any extension of prefix.
func TestQuickLikePrefix(t *testing.T) {
	f := func(prefix, rest string) bool {
		if strings.ContainsAny(prefix, "%_") {
			return true
		}
		return likeMatch(prefix+"%", prefix+rest)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: integer modulo in the dialect is always in [0, divisor).
func TestQuickModuloNonNegative(t *testing.T) {
	f := func(x int32, d uint8) bool {
		div := int64(d%100) + 1
		got, err := evalArith(sqlparse.OpMod, value.Int(int64(x)), value.Int(div))
		if err != nil {
			return false
		}
		return got.AsInt() >= 0 && got.AsInt() < div
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
