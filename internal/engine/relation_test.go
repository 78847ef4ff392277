package engine

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"pushdowndb/internal/sqlparse"
	"pushdowndb/internal/store"
	"pushdowndb/internal/value"
)

func TestColIndexCaseInsensitive(t *testing.T) {
	rel := &Relation{Cols: []string{"C_CustKey", "val"}}
	if rel.ColIndex("c_custkey") != 0 || rel.ColIndex("VAL") != 1 || rel.ColIndex("zzz") != -1 {
		t.Error("ColIndex case-insensitivity broken")
	}
}

func TestFromStringsTyping(t *testing.T) {
	rel := relOf([]string{"i", "f", "d", "s", "n"},
		[][]string{{"42", "2.5", "1994-01-01", "text", ""}})
	row := rel.Rows[0]
	kinds := []value.Kind{value.KindInt, value.KindFloat, value.KindDate, value.KindString, value.KindNull}
	for i, k := range kinds {
		if row[i].Kind() != k {
			t.Errorf("col %d kind = %v, want %v", i, row[i].Kind(), k)
		}
	}
}

// selectOf parses a test statement.
func selectOf(t testing.TB, sql string) *sqlparse.Select {
	t.Helper()
	sel, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	return sel
}

// localRef runs sql over rel on the local operators, as runLocal runs it,
// then its ORDER BY: the local operator tests' statement form (the FROM
// table is not read).
func localRef(rel *Relation, sql string) (*Relation, error) {
	sel, err := sqlparse.Parse(sql)
	if err == nil {
		rel, err = runLocal(rel, sel)
	}
	if err == nil && len(sel.OrderBy) > 0 {
		rel, err = SortLocal(rel, sel.OrderBy)
	}
	return rel, err
}

func TestProjectLocalStar(t *testing.T) {
	rel := relOf([]string{"a", "b"}, [][]string{{"1", "2"}})
	out, err := localRef(rel, "SELECT *, a + b AS s FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Cols) != 3 || out.Cols[2] != "s" {
		t.Fatalf("cols = %v", out.Cols)
	}
	if out.Rows[0][2].AsInt() != 3 {
		t.Errorf("computed col = %v", out.Rows[0][2])
	}
}

func TestProjectLocalErrors(t *testing.T) {
	rel := relOf([]string{"a"}, [][]string{{"1"}})
	if _, err := localRef(rel, "SELECT nosuch + 1 FROM t"); err == nil {
		t.Error("unknown column should error")
	}
	if _, err := localRef(rel, "SELECT ((( FROM t"); err == nil {
		t.Error("bad projection should error")
	}
}

func TestSortLocalStableTies(t *testing.T) {
	rel := relOf([]string{"k", "tag"}, [][]string{
		{"1", "first"}, {"2", "x"}, {"1", "second"}, {"1", "third"},
	})
	out, err := localRef(rel, "SELECT * FROM t ORDER BY k")
	if err != nil {
		t.Fatal(err)
	}
	// Stable sort keeps equal keys in input order.
	var tags []string
	for _, r := range out.Rows {
		if r[0].AsInt() == 1 {
			tags = append(tags, r[1].String())
		}
	}
	if strings.Join(tags, ",") != "first,second,third" {
		t.Errorf("tie order = %v", tags)
	}
}

func TestSortLocalMultiKey(t *testing.T) {
	rel := relOf([]string{"a", "b"}, [][]string{
		{"2", "1"}, {"1", "9"}, {"2", "0"}, {"1", "3"},
	})
	out, err := localRef(rel, "SELECT * FROM t ORDER BY a ASC, b DESC")
	if err != nil {
		t.Fatal(err)
	}
	want := [][2]int64{{1, 9}, {1, 3}, {2, 1}, {2, 0}}
	for i, w := range want {
		a, _ := out.Rows[i][0].IntNum()
		b, _ := out.Rows[i][1].IntNum()
		if a != w[0] || b != w[1] {
			t.Fatalf("row %d = (%d,%d), want %v", i, a, b, w)
		}
	}
}

func TestSortLocalErrors(t *testing.T) {
	rel := relOf([]string{"a"}, [][]string{{"1"}})
	if _, err := localRef(rel, "SELECT * FROM t ORDER BY nosuch"); err == nil {
		t.Error("unknown sort column should error")
	}
}

func TestCutRowsArityMismatch(t *testing.T) {
	rows := func(cols []string, body string) part {
		var p part
		p.openRows(cols, []byte(body))
		return p
	}
	b := func() part { return rows([]string{"x", "y"}, "1,2\n") }
	if _, err := decodeParts(&decoder{}, rows([]string{"x"}, "1\n"), b()); err == nil {
		t.Error("arity mismatch should error")
	}
	if _, err := decodeParts(&decoder{}, b(), rows([]string{"y", "x"}, "2,1\n")); err == nil {
		t.Error("the same columns in another order should error")
	}
	if rel, err := decodeParts(&decoder{}, b()); err != nil || len(rel.Cols) != 2 || len(rel.Rows) != 1 {
		t.Error("one part's rows")
	}
	if rel, err := decodeParts(&decoder{}, part{}, b()); err != nil || len(rel.Cols) != 2 {
		t.Error("a part with neither columns nor rows should be skipped")
	}
}

func TestRelationStringTruncates(t *testing.T) {
	rel := &Relation{Cols: []string{"x"}}
	for i := 0; i < 50; i++ {
		rel.Rows = append(rel.Rows, Row{value.Int(int64(i))})
	}
	s := rel.String()
	if !strings.Contains(s, "50 rows total") {
		t.Errorf("large relation should truncate with a row count:\n%s", s)
	}
}

func TestGroupByLocalCompositeAndExpressions(t *testing.T) {
	rel := relOf([]string{"a", "b", "v"}, [][]string{
		{"x", "1", "10"}, {"x", "2", "20"}, {"x", "1", "30"}, {"y", "1", "40"},
	})
	out, err := localRef(rel, "SELECT a, b, SUM(v) AS s FROM t GROUP BY a, b")
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) != 3 {
		t.Fatalf("groups = %d, want 3", len(out.Rows))
	}
	// Expression-over-aggregates items.
	out2, err := localRef(rel, "SELECT a, SUM(v) / COUNT(*) AS mean FROM t GROUP BY a")
	if err != nil {
		t.Fatal(err)
	}
	means := map[string]float64{}
	for _, r := range out2.Rows {
		f, _ := r[1].Num()
		means[r[0].String()] = f
	}
	if means["x"] != 20 || means["y"] != 40 {
		t.Errorf("means = %v", means)
	}
}

func TestAggregateLocalEmptyInput(t *testing.T) {
	rel := &Relation{Cols: []string{"v"}}
	out, err := localRef(rel, "SELECT SUM(v) AS s, COUNT(*) AS n FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) != 1 {
		t.Fatalf("rows = %v", out.Rows)
	}
	if !out.Rows[0][0].IsNull() {
		t.Error("SUM over empty should be NULL")
	}
}

func TestHashJoinLocalNullKeys(t *testing.T) {
	left := relOf([]string{"k", "l"}, [][]string{{"", "a"}, {"1", "b"}})
	right := relOf([]string{"k2", "r"}, [][]string{{"", "x"}, {"1", "y"}})
	out, err := HashJoin(left, right, "k", "k2")
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) != 1 {
		t.Errorf("NULL keys must not join: %v", out.Rows)
	}
}

// Property: filtering by p and by NOT p partitions the relation.
func TestQuickFilterPartition(t *testing.T) {
	f := func(vals []int16, threshold int16) bool {
		rows := make([][]string, len(vals))
		for i, v := range vals {
			rows[i] = []string{value.Int(int64(v)).String()}
		}
		rel := relOf([]string{"x"}, rows)
		pred := "x <= " + value.Int(int64(threshold)).String()
		yes, err1 := localRef(rel, "SELECT * FROM t WHERE "+pred)
		no, err2 := localRef(rel, "SELECT * FROM t WHERE NOT ("+pred+")")
		if err1 != nil || err2 != nil {
			return false
		}
		return len(yes.Rows)+len(no.Rows) == len(rel.Rows)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: the sampling top-K of k rows, at any sample size over any
// partitioning, is the k first rows of a stable sort on the key: ties in
// table order.
func TestQuickTopKMatchesSortLimit(t *testing.T) {
	f := func(vals []int8, kRaw, sRaw uint8, desc bool) bool {
		if len(vals) == 0 {
			return true
		}
		k := int(kRaw)%len(vals) + 1
		rows := make([][]string, len(vals))
		for i, v := range vals {
			rows[i] = []string{fmt.Sprint(i), fmt.Sprint(v)}
		}
		st := store.New()
		if err := PartitionTable(context.Background(), st, testBucket, "q", []string{"id", "x"}, rows, 1+int(sRaw)%3); err != nil {
			t.Fatal(err)
		}
		order := "x"
		if desc {
			order = "x DESC"
		}
		got, err := openTestDB(t, st).NewExec().SamplingTopK(fmt.Sprintf("SELECT * FROM q ORDER BY %s LIMIT %d", order, k), int64(sRaw))
		if err != nil {
			t.Fatal(err)
		}
		idx := make([]int, len(vals))
		for i := range idx {
			idx[i] = i
		}
		slices.SortStableFunc(idx, func(a, b int) int {
			if desc {
				a, b = b, a
			}
			return cmp.Compare(vals[a], vals[b])
		})
		var lines []string
		for _, i := range idx[:k] {
			lines = append(lines, strings.Join(rows[i], "|"))
		}
		return render(got, true) == "id|x\n"+strings.Join(lines, "\n")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
