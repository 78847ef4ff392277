package sqlparse

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// walkStatements holds, for every Expr node type the parser can produce, a
// statement whose parse contains one. The nodes under test are the parser's
// own output, so a node's shape here is always its real shape.
var walkStatements = []struct{ node, sql string }{
	{"Star", "SELECT * FROM t"},
	{"Column", "SELECT a, t.b FROM t"},
	{"Literal", "SELECT 1, 'x', 1.5, NULL, TRUE, DATE '1994-01-01' FROM t"},
	{"Binary", "SELECT a + b * c FROM t WHERE a < b AND c = d OR e != f"},
	{"Unary", "SELECT -a FROM t WHERE NOT (a > 1)"},
	{"IsNull", "SELECT a FROM t WHERE a IS NULL OR b IS NOT NULL"},
	{"Between", "SELECT a FROM t WHERE a BETWEEN b AND c + 1"},
	{"In", "SELECT a FROM t WHERE a NOT IN (1, b, c * 2)"},
	{"Like", "SELECT a FROM t WHERE a LIKE 'x%' AND b NOT LIKE c"},
	{"Case", "SELECT CASE WHEN a = 1 THEN b WHEN c THEN d ELSE e END, CASE WHEN a THEN b END FROM t"},
	{"Cast", "SELECT CAST(a + 1 AS INT) FROM t"},
	{"Call", "SELECT SUBSTRING(a, 1 + b, 2), EXTRACT(YEAR FROM d), UPPER(LOWER(a)) FROM t"},
	{"Aggregate", "SELECT COUNT(*), SUM(a * (1 - b)), 100 * SUM(CASE WHEN a THEN b ELSE 0 END) / MAX(c) FROM t GROUP BY a + 1 ORDER BY a DESC"},
}

// exprType is the Expr interface's reflect.Type.
var exprType = reflect.TypeOf((*Expr)(nil)).Elem()

// childrenOf is the oracle for a node's children: every field of the node
// that holds expressions (an Expr, a []Expr, or the []When of a Case), in
// declaration order, found by reflection — so a new node type, or a new
// child of an old one, is seen here without being taught to anything.
func childrenOf(e Expr) []Expr {
	var out []Expr
	var collect func(v reflect.Value)
	collect = func(v reflect.Value) {
		switch {
		case v.Type() == exprType:
			if !v.IsNil() {
				out = append(out, v.Interface().(Expr))
			}
		case v.Kind() == reflect.Slice:
			for i := 0; i < v.Len(); i++ {
				collect(v.Index(i))
			}
		case v.Kind() == reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				collect(v.Field(i))
			}
		}
	}
	node := reflect.ValueOf(e).Elem()
	for i := 0; i < node.NumField(); i++ {
		collect(node.Field(i))
	}
	return out
}

// preOrder is the oracle traversal over childrenOf; descend(n) false prunes
// n's subtree after visiting n.
func preOrder(e Expr, descend func(Expr) bool, visit func(Expr)) {
	visit(e)
	if !descend(e) {
		return
	}
	for _, c := range childrenOf(e) {
		preOrder(c, descend, visit)
	}
}

// selectExprs lists every top-level expression of a statement.
func selectExprs(sel *Select) []Expr {
	exprs := ItemExprs(sel.Items)
	exprs = append(exprs, sel.GroupBy...)
	for _, o := range sel.OrderBy {
		exprs = append(exprs, o.Expr)
	}
	for _, j := range sel.Joins {
		exprs = append(exprs, j.Cond)
	}
	return append(exprs, sel.Where)
}

// TestWalkVisitsEveryChildOnce checks Walk against the reflective oracle on
// one instance of every node type: the same nodes, each once, in pre-order
// — all of them when f always returns true, and none below a node where f
// returned false.
func TestWalkVisitsEveryChildOnce(t *testing.T) {
	everywhere := func(Expr) bool { return true }
	notIntoAggregates := func(e Expr) bool { _, isAgg := e.(*Aggregate); return !isAgg }
	var declared []string
	seen := map[string]bool{} // node types met anywhere in the table
	for _, tc := range walkStatements {
		declared = append(declared, tc.node)
		sel, err := Parse(tc.sql)
		if err != nil {
			t.Fatalf("%s: %v", tc.sql, err)
		}
		has := false
		for _, e := range selectExprs(sel) {
			if e == nil {
				Walk(e, func(Expr) bool { t.Errorf("%s: Walk visited a nil expression", tc.sql); return true })
				continue
			}
			for name, descend := range map[string]func(Expr) bool{"all": everywhere, "pruned": notIntoAggregates} {
				var want, got []Expr
				preOrder(e, descend, func(n Expr) { want = append(want, n) })
				Walk(e, func(n Expr) bool { got = append(got, n); return descend(n) })
				if len(got) != len(want) {
					t.Errorf("%s (%s): Walk visited %d nodes of %s, the oracle %d", tc.sql, name, len(got), e, len(want))
					continue
				}
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("%s (%s): visit %d of %s is %s, the oracle's is %s", tc.sql, name, i, e, got[i], want[i])
						break
					}
				}
			}
			preOrder(e, everywhere, func(n Expr) {
				name := strings.TrimPrefix(fmt.Sprintf("%T", n), "*sqlparse.")
				seen[name] = true
				has = has || name == tc.node
			})
		}
		if !has {
			t.Errorf("%s: no %s node in the parse", tc.sql, tc.node)
		}
	}
	// A node type the parser produced here without the table declaring it is
	// a new production: it needs a row of its own.
	var met []string
	for name := range seen {
		met = append(met, name)
	}
	sort.Strings(met)
	sort.Strings(declared)
	if got, want := strings.Join(met, " "), strings.Join(declared, " "); got != want {
		t.Errorf("node types parsed: %s\ndeclared in walkStatements: %s", got, want)
	}
}
