package engine

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"pushdowndb/internal/expr"
	"pushdowndb/internal/selectengine"
	"pushdowndb/internal/sqlparse"
)

// The five read-only AST traversals are callers of sqlparse.Walk. The
// hand-rolled recursions they replaced live on below as oracles, and the
// test holds every traversal to its oracle over the statements the repo's
// other batteries already trust: the 18-query differential corpus and
// sqlparse's fuzz seed corpus (the seeds FuzzParseRoundTrip adds in code,
// its on-disk corpus, and the one-of-every-node table of the Walk test).

// sqlLiterals returns every string literal of a Go source file that parses
// as a SELECT statement.
func sqlLiterals(t *testing.T, path string) []*sqlparse.Select {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var out []*sqlparse.Select
	ast.Inspect(f, func(n ast.Node) bool {
		if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
			if s, err := strconv.Unquote(lit.Value); err == nil {
				if sel, err := sqlparse.Parse(s); err == nil {
					out = append(out, sel)
				}
			}
		}
		return true
	})
	return out
}

// traversalCorpus gathers the statements the oracles are compared over.
func traversalCorpus(t *testing.T) []*sqlparse.Select {
	t.Helper()
	var corpus []*sqlparse.Select
	for _, q := range diffQueries {
		sel, err := sqlparse.Parse(q.sql)
		if err != nil {
			t.Fatalf("%s: %v", q.name, err)
		}
		corpus = append(corpus, sel)
	}
	seeds := sqlLiterals(t, "../sqlparse/fuzz_test.go")
	if len(seeds) < 10 {
		t.Fatalf("found %d fuzz seeds in ../sqlparse/fuzz_test.go; has the seed list moved?", len(seeds))
	}
	corpus = append(corpus, seeds...)
	corpus = append(corpus, sqlLiterals(t, "../sqlparse/walk_test.go")...)
	files, err := filepath.Glob("../sqlparse/testdata/fuzz/FuzzParseRoundTrip/*")
	if err != nil || len(files) == 0 {
		t.Fatalf("on-disk fuzz corpus: %d files, %v", len(files), err)
	}
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(data), "\n") {
			if !strings.HasPrefix(line, "string(") {
				continue
			}
			if s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(line, "string("), ")")); err == nil {
				if sel, err := sqlparse.Parse(s); err == nil {
					corpus = append(corpus, sel)
				}
			}
		}
	}
	return corpus
}

// sameNodes reports whether two traversals returned the same nodes — the
// same pointers, not equal copies — in the same order.
func sameNodes[T comparable](a, b []T) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestTraversalsAgreeWithOracles(t *testing.T) {
	for _, sel := range traversalCorpus(t) {
		exprs := sqlparse.ItemExprs(sel.Items)
		exprs = append(exprs, sel.GroupBy...)
		for _, o := range sel.OrderBy {
			exprs = append(exprs, o.Expr)
		}
		for _, j := range sel.Joins {
			exprs = append(exprs, j.Cond)
		}
		exprs = append(exprs, sel.Where)
		for _, e := range exprs {
			if e == nil {
				continue
			}
			if got, want := sqlparse.ContainsAggregate(e), oracleContainsAggregate(e); got != want {
				t.Errorf("%s: ContainsAggregate(%s) = %v, oracle %v", sel, e, got, want)
			}
			refs := oracleColumnRefs(e)
			if got := sqlparse.ColumnRefs(e); !sameNodes(got, refs) {
				t.Errorf("%s: ColumnRefs(%s) = %v, oracle %v", sel, e, got, refs)
			}
			var names []string
			seen := map[string]bool{}
			for _, c := range refs {
				if !seen[c.Name] {
					seen[c.Name] = true
					names = append(names, c.Name)
				}
			}
			if got := sqlparse.Columns(e); !reflect.DeepEqual(got, names) {
				t.Errorf("%s: Columns(%s) = %v, oracle %v", sel, e, got, names)
			}
		}
		if got, want := expr.CollectAggregates(exprs), oracleCollectAggregates(exprs); !sameNodes(got, want) {
			t.Errorf("%s: CollectAggregates = %v, oracle %v", sel, got, want)
		}
		if got, want := selectengine.CountNodes(sel), oracleCountNodes(sel); got != want {
			t.Errorf("%s: CountNodes = %d, oracle %d", sel, got, want)
		}
	}
}

// oracleContainsAggregate is sqlparse.ContainsAggregate as it was before Walk.
func oracleContainsAggregate(e sqlparse.Expr) bool {
	switch t := e.(type) {
	case *sqlparse.Aggregate:
		return true
	case *sqlparse.Binary:
		return oracleContainsAggregate(t.L) || oracleContainsAggregate(t.R)
	case *sqlparse.Unary:
		return oracleContainsAggregate(t.X)
	case *sqlparse.Case:
		for _, w := range t.Whens {
			if oracleContainsAggregate(w.Cond) || oracleContainsAggregate(w.Result) {
				return true
			}
		}
		return t.Else != nil && oracleContainsAggregate(t.Else)
	case *sqlparse.Cast:
		return oracleContainsAggregate(t.X)
	case *sqlparse.Call:
		for _, a := range t.Args {
			if oracleContainsAggregate(a) {
				return true
			}
		}
	case *sqlparse.Between:
		return oracleContainsAggregate(t.X) || oracleContainsAggregate(t.Lo) || oracleContainsAggregate(t.Hi)
	case *sqlparse.In:
		if oracleContainsAggregate(t.X) {
			return true
		}
		for _, a := range t.List {
			if oracleContainsAggregate(a) {
				return true
			}
		}
	case *sqlparse.Like:
		return oracleContainsAggregate(t.X) || oracleContainsAggregate(t.Pattern)
	case *sqlparse.IsNull:
		return oracleContainsAggregate(t.X)
	}
	return false
}

// oracleColumnRefs is sqlparse.ColumnRefs as it was before Walk.
func oracleColumnRefs(e sqlparse.Expr) []*sqlparse.Column {
	var out []*sqlparse.Column
	var walk func(sqlparse.Expr)
	walk = func(e sqlparse.Expr) {
		switch t := e.(type) {
		case *sqlparse.Column:
			out = append(out, t)
		case *sqlparse.Binary:
			walk(t.L)
			walk(t.R)
		case *sqlparse.Unary:
			walk(t.X)
		case *sqlparse.Case:
			for _, w := range t.Whens {
				walk(w.Cond)
				walk(w.Result)
			}
			if t.Else != nil {
				walk(t.Else)
			}
		case *sqlparse.Cast:
			walk(t.X)
		case *sqlparse.Call:
			for _, a := range t.Args {
				walk(a)
			}
		case *sqlparse.Aggregate:
			walk(t.X)
		case *sqlparse.Between:
			walk(t.X)
			walk(t.Lo)
			walk(t.Hi)
		case *sqlparse.In:
			walk(t.X)
			for _, a := range t.List {
				walk(a)
			}
		case *sqlparse.Like:
			walk(t.X)
			walk(t.Pattern)
		case *sqlparse.IsNull:
			walk(t.X)
		}
	}
	walk(e)
	return out
}

// oracleCollectAggregates is expr.CollectAggregates as it was before Walk.
func oracleCollectAggregates(exprs []sqlparse.Expr) []*sqlparse.Aggregate {
	var out []*sqlparse.Aggregate
	seen := map[*sqlparse.Aggregate]bool{}
	var walk func(sqlparse.Expr)
	walk = func(e sqlparse.Expr) {
		switch t := e.(type) {
		case *sqlparse.Aggregate:
			if !seen[t] {
				seen[t] = true
				out = append(out, t)
			}
		case *sqlparse.Binary:
			walk(t.L)
			walk(t.R)
		case *sqlparse.Unary:
			walk(t.X)
		case *sqlparse.Case:
			for _, w := range t.Whens {
				walk(w.Cond)
				walk(w.Result)
			}
			if t.Else != nil {
				walk(t.Else)
			}
		case *sqlparse.Cast:
			walk(t.X)
		case *sqlparse.Call:
			for _, a := range t.Args {
				walk(a)
			}
		case *sqlparse.Between:
			walk(t.X)
			walk(t.Lo)
			walk(t.Hi)
		case *sqlparse.In:
			walk(t.X)
			for _, a := range t.List {
				walk(a)
			}
		case *sqlparse.Like:
			walk(t.X)
			walk(t.Pattern)
		case *sqlparse.IsNull:
			walk(t.X)
		}
	}
	for _, e := range exprs {
		walk(e)
	}
	return out
}

// oracleCountNodes is selectengine.CountNodes as it was before Walk.
func oracleCountNodes(sel *sqlparse.Select) int64 {
	var n int64
	var walk func(sqlparse.Expr)
	walk = func(e sqlparse.Expr) {
		if e == nil {
			return
		}
		n++
		switch t := e.(type) {
		case *sqlparse.Binary:
			walk(t.L)
			walk(t.R)
		case *sqlparse.Unary:
			walk(t.X)
		case *sqlparse.Case:
			for _, w := range t.Whens {
				walk(w.Cond)
				walk(w.Result)
			}
			walk(t.Else)
		case *sqlparse.Cast:
			walk(t.X)
		case *sqlparse.Call:
			for _, a := range t.Args {
				walk(a)
			}
		case *sqlparse.Aggregate:
			walk(t.X)
		case *sqlparse.Between:
			walk(t.X)
			walk(t.Lo)
			walk(t.Hi)
		case *sqlparse.In:
			walk(t.X)
			for _, a := range t.List {
				walk(a)
			}
		case *sqlparse.Like:
			walk(t.X)
			walk(t.Pattern)
		case *sqlparse.IsNull:
			walk(t.X)
		}
	}
	for _, it := range sel.Items {
		walk(it.Expr)
	}
	walk(sel.Where)
	for _, g := range sel.GroupBy {
		walk(g)
	}
	return n
}
