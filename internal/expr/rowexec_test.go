package expr

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"pushdowndb/internal/race"
	"pushdowndb/internal/sqlparse"
	"pushdowndb/internal/value"
)

// runBlock runs sql's SELECT block over rows the way both callers do —
// an aggregation when it groups or aggregates, a projection otherwise,
// * expanding to columns a, b — and renders what was emitted, one row per
// line, or the error.
func runBlock(t *testing.T, sql string, rows []MapEnv) string {
	t.Helper()
	sel, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	emit := func(row []value.Value) error {
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = v.String()
		}
		out = append(out, strings.Join(cells, "|"))
		return nil
	}
	header := []string{"a", "b"}
	items := sqlparse.ItemExprs(sel.Items)
	var x *RowExec
	if len(sel.GroupBy) > 0 || sel.HasAggregates() {
		x, err = NewAggregation(header, sel.Where, sel.GroupBy, items, emit)
	} else {
		x, err = NewProjection(header, sel.Where, items, emit)
	}
	if err != nil {
		return "error: " + err.Error()
	}
	for _, cur := range rows {
		if err := x.Add(cur.row(header)); err != nil {
			return "error: " + err.Error()
		}
	}
	if err := x.Finish(); err != nil {
		return "error: " + err.Error()
	}
	return strings.Join(out, "\n")
}

func TestRowExec(t *testing.T) {
	rows := []MapEnv{
		{"a": value.Int(1), "b": value.Str("x")},
		{"a": value.Int(2), "b": value.Null()},
		{"a": value.Int(3), "b": value.Str("")},
		{"a": value.Int(4), "b": value.Str("x")},
	}
	for _, tc := range []struct{ sql, want string }{
		{"SELECT a + 1, b FROM t WHERE a > 1", "3|\n4|\n5|x"},
		{"SELECT *, a FROM t WHERE b = 'x'", "1|x|1\n4|x|4"},
		{"SELECT a FROM t WHERE a > 100", ""},
		{"SELECT c FROM t", "error: expr: unknown column c"},
		// Each row is matched against its own LIKE pattern; a NULL pattern
		// is NULL, and a number matches as its text.
		{"SELECT a, b LIKE b FROM t", "1|true\n2|\n3|true\n4|true"},
		{"SELECT a FROM t WHERE a LIKE a AND a NOT LIKE 1", "2\n3\n4"},
		// Groups come out in first-seen order; NULL and the empty string
		// render to the same key and share a group, keyed by the first seen.
		{"SELECT b, COUNT(*), SUM(a) FROM t GROUP BY b", "x|2|5\n|2|5"},
		{"SELECT COUNT(*), MAX(a) FROM t GROUP BY a % 2", "2|3\n2|4"},
		// An item that is a group-by expression is its key's value.
		{"SELECT a % 2, SUM(a), b FROM t GROUP BY a % 2, b", "1|1|x\n0|2|\n1|3|\n0|4|x"},
		// So is every subtree of one outside its aggregates.
		{"SELECT a % 2 + 1, COUNT(*) FROM t GROUP BY a % 2", "2|2\n1|2"},
		{"SELECT 10 * (a % 2) + SUM(a % 2), MAX(a) FROM t GROUP BY a % 2", "12|3\n0|4"},
		// The largest key subtree wins over a key inside it.
		{"SELECT b || a, COUNT(*) FROM t GROUP BY b, b || a", "x1|1\n|1\n3|1\nx4|1"},
		{"SELECT (a % 2) * a, COUNT(*) FROM t GROUP BY a % 2, (a % 2) * a", "1|1\n0|2\n3|1"},
		{"SELECT b, COUNT(*) FROM t WHERE a > 100 GROUP BY b", ""},
		{"SELECT COUNT(*), SUM(a), 10 * MAX(a) FROM t", "4|10|40"},
		// An aggregation without keys has its one group over zero rows too.
		{"SELECT COUNT(*), COUNT(*) + 1, SUM(a), AVG(a) FROM t WHERE a > 100", "0|1||"},
		{"SELECT a, COUNT(*) FROM t GROUP BY b", "error: expr: unknown column a"},
		{"SELECT SUM(b) FROM t", `error: expr: SUM over non-numeric "x"`},
	} {
		if got := runBlock(t, tc.sql, rows); got != tc.want {
			t.Errorf("%s\n got %q\nwant %q", tc.sql, got, tc.want)
		}
	}
}

// TestProjectionRejectsAggregatesAndBareStar: what the caller declared a
// projection stays one — an aggregate among its items is the evaluator's
// error — and * is a projection's item only: in a group's items it is no
// scalar.
func TestProjectionRejectsAggregatesAndBareStar(t *testing.T) {
	sel, err := sqlparse.Parse("SELECT SUM(a), * FROM t")
	if err != nil {
		t.Fatal(err)
	}
	emit := func([]value.Value) error { return nil }
	header, row := []string{"a"}, []value.Value{value.Int(1)}
	x, err := NewProjection(header, nil, []sqlparse.Expr{sel.Items[0].Expr}, emit)
	if err != nil {
		t.Fatal(err)
	}
	if err := x.Add(row); fmt.Sprint(err) != "expr: aggregate SUM(a) evaluated outside aggregation" {
		t.Errorf("projected SUM(a): err %v", err)
	}
	x, err = NewAggregation(header, nil, nil, []sqlparse.Expr{sel.Items[1].Expr}, emit)
	if err == nil {
		err = x.Finish()
	}
	if fmt.Sprint(err) != "expr: * is not a scalar expression" {
		t.Errorf("aggregated *: err %v", err)
	}
}

// TestGroupsMergeKeepsFirstSeenOrder: merging partials of contiguous row
// runs in order yields the group order one sequential pass would have.
func TestGroupsMergeKeepsFirstSeenOrder(t *testing.T) {
	sel, _ := sqlparse.Parse("SELECT g, SUM(v) FROM t GROUP BY g")
	items := sqlparse.ItemExprs(sel.Items)
	header := []string{"g", "v"}
	fill := func(keys ...string) *groupTable {
		tbl := groupsOver(t, header, sel.GroupBy, items)
		for _, k := range keys {
			g := tbl.find([]byte(k))
			if g == nil {
				g = tbl.insert([]byte(k), []value.Value{value.Str(k)})
			}
			_ = tbl.add(g, []value.Value{value.Str(k), value.Int(1)})
		}
		return tbl
	}
	merged := groupsOver(t, header, sel.GroupBy, items)
	for _, part := range []*groupTable{fill("b", "a", "b"), fill("c", "a"), fill("d", "b")} {
		if err := merged.merge(part); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := fmt.Sprint(finishRows(t, merged)), "[[b 3] [a 2] [c 1] [d 1]]"; got != want {
		t.Errorf("merged groups = %s, want %s", got, want)
	}
}

// TestGroupsAllocatePerChunk pins the group table to allocations per
// chunk, not per group: 10k groups, each with two aggregates, cost their
// arena chunks and the index's growth. insert copies the key and its
// values, so the caller's scratch slices are reused throughout.
func TestGroupsAllocatePerChunk(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts differ under the race detector")
	}
	sel, err := sqlparse.Parse("SELECT k, COUNT(*), SUM(x) FROM t GROUP BY k")
	if err != nil {
		t.Fatal(err)
	}
	const groups = 10_000
	items := sqlparse.ItemExprs(sel.Items)
	ev, err := bound(sqlparse.NewNames([]string{"k", "x"}).Index, items...)
	if err != nil {
		t.Fatal(err)
	}
	var tbl *groupTable
	n := testing.AllocsPerRun(5, func() {
		tbl, _ = newGroupTable(ev, sel.GroupBy, items)
		var key []byte
		vals := make([]value.Value, 1)
		for i := 0; i < groups; i++ {
			key = strconv.AppendInt(key[:0], int64(i), 10)
			vals[0] = value.Int(int64(i))
			tbl.insert(key, vals)
		}
	})
	if n > groups/50 {
		t.Errorf("inserting %d groups allocates %v times, want at most %d", groups, n, groups/50)
	}
	for _, i := range []int{0, groups / 2, groups - 1} {
		g := tbl.find([]byte(strconv.Itoa(i)))
		if g == nil || g.keyVals[0].AsInt() != int64(i) || len(g.states) != 2 {
			t.Fatalf("group %d did not keep its own key: %+v", i, g)
		}
	}
}

// TestGroupKeyEvaluatedOnce: a group key that is not a bare column is
// evaluated once per row, and a new group keeps the value its key was
// rendered from. UPPER allocates its result, so folding 2,000 rows into as
// many groups costs about one allocation per row more than folding them into
// one group only if each new group evaluates its key again.
func TestGroupKeyEvaluatedOnce(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts differ under the race detector")
	}
	sel, err := sqlparse.Parse("SELECT UPPER(s) AS u, COUNT(*) AS n FROM t GROUP BY UPPER(s)")
	if err != nil {
		t.Fatal(err)
	}
	const rows = 2000
	allocs := func(distinct int) float64 {
		in := make([][]value.Value, rows)
		for i := range in {
			in[i] = []value.Value{value.Str(fmt.Sprintf("k%d", i%distinct))}
		}
		return testing.AllocsPerRun(5, func() {
			groups := 0
			x, err := NewAggregation([]string{"s"}, nil, sel.GroupBy, sqlparse.ItemExprs(sel.Items), func([]value.Value) error { groups++; return nil })
			for _, row := range in {
				if err == nil {
					err = x.Add(row)
				}
			}
			if err == nil {
				err = x.Finish()
			}
			if err != nil || groups != distinct {
				t.Fatalf("%d groups, %v; want %d", groups, err, distinct)
			}
		})
	}
	if one, many := allocs(1), allocs(rows); many-one > rows/2 {
		t.Errorf("folding %d rows into one group allocates %v times, into %d groups %v: a new group evaluates its key again", rows, one, rows, many)
	}
}
