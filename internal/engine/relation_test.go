package engine

import (
	"strings"
	"testing"
	"testing/quick"

	"pushdowndb/internal/value"
)

func TestColIndexCaseInsensitive(t *testing.T) {
	rel := &Relation{Cols: []string{"C_CustKey", "val"}}
	if rel.ColIndex("c_custkey") != 0 || rel.ColIndex("VAL") != 1 || rel.ColIndex("zzz") != -1 {
		t.Error("ColIndex case-insensitivity broken")
	}
}

func TestFromStringsTyping(t *testing.T) {
	rel := FromStringsN([]string{"i", "f", "d", "s", "n"},
		[][]string{{"42", "2.5", "1994-01-01", "text", ""}}, 1)
	row := rel.Rows[0]
	kinds := []value.Kind{value.KindInt, value.KindFloat, value.KindDate, value.KindString, value.KindNull}
	for i, k := range kinds {
		if row[i].Kind() != k {
			t.Errorf("col %d kind = %v, want %v", i, row[i].Kind(), k)
		}
	}
}

// projectRef parses a select list and runs the reference projection.
func projectRef(rel *Relation, items string) (*Relation, error) {
	its, err := parseItems(items)
	if err != nil {
		return nil, err
	}
	return Operators{}.Project(rel, its)
}

func TestProjectLocalStar(t *testing.T) {
	rel := FromStringsN([]string{"a", "b"}, [][]string{{"1", "2"}}, 1)
	out, err := projectRef(rel, "*, a + b AS s")
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
	rel := FromStringsN([]string{"a"}, [][]string{{"1"}}, 1)
	if _, err := projectRef(rel, "nosuch + 1"); err == nil {
		t.Error("unknown column should error")
	}
	if _, err := projectRef(rel, "((("); err == nil {
		t.Error("bad projection should error")
	}
}

func TestSortLocalStableTies(t *testing.T) {
	rel := FromStringsN([]string{"k", "tag"}, [][]string{
		{"1", "first"}, {"2", "x"}, {"1", "second"}, {"1", "third"},
	}, 1)
	out, err := SortLocal(rel, "k")
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
	rel := FromStringsN([]string{"a", "b"}, [][]string{
		{"2", "1"}, {"1", "9"}, {"2", "0"}, {"1", "3"},
	}, 1)
	out, err := SortLocal(rel, "a ASC, b DESC")
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
	rel := FromStringsN([]string{"a"}, [][]string{{"1"}}, 1)
	if _, err := SortLocal(rel, "nosuch"); err == nil {
		t.Error("unknown sort column should error")
	}
	if _, err := SortLocal(rel, ""); err == nil {
		t.Error("empty order-by should error")
	}
}

func TestConcatArityMismatch(t *testing.T) {
	a := FromStringsN([]string{"x"}, [][]string{{"1"}}, 1)
	b := FromStringsN([]string{"x", "y"}, [][]string{{"1", "2"}}, 1)
	if err := a.Concat(b); err == nil {
		t.Error("arity mismatch should error")
	}
	empty := &Relation{}
	if err := empty.Concat(b); err != nil || len(empty.Cols) != 2 {
		t.Error("concat into empty relation should adopt columns")
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
	rel := FromStringsN([]string{"a", "b", "v"}, [][]string{
		{"x", "1", "10"}, {"x", "2", "20"}, {"x", "1", "30"}, {"y", "1", "40"},
	}, 1)
	out, err := GroupByLocal(rel, "a, b", "a, b, SUM(v) AS s")
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) != 3 {
		t.Fatalf("groups = %d, want 3", len(out.Rows))
	}
	// Expression-over-aggregates items.
	out2, err := GroupByLocal(rel, "a", "a, SUM(v) / COUNT(*) AS mean")
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
	out, err := AggregateLocal(rel, "SUM(v) AS s, COUNT(*) AS n")
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
	left := FromStringsN([]string{"k", "l"}, [][]string{{"", "a"}, {"1", "b"}}, 1)
	right := FromStringsN([]string{"k2", "r"}, [][]string{{"", "x"}, {"1", "y"}}, 1)
	out, err := HashJoinLocal(left, right, "k", "k2")
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) != 1 {
		t.Errorf("NULL keys must not join: %v", out.Rows)
	}
}

// Property: FilterLocal(p) + FilterLocal(NOT p) partitions the relation.
func TestQuickFilterPartition(t *testing.T) {
	f := func(vals []int16, threshold int16) bool {
		rows := make([][]string, len(vals))
		for i, v := range vals {
			rows[i] = []string{value.Int(int64(v)).String()}
		}
		rel := FromStringsN([]string{"x"}, rows, 1)
		pred := "x <= " + value.Int(int64(threshold)).String()
		yes, err1 := FilterLocal(rel, pred)
		no, err2 := FilterLocal(rel, "NOT ("+pred+")")
		if err1 != nil || err2 != nil {
			return false
		}
		return len(yes.Rows)+len(no.Rows) == len(rel.Rows)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: TopK(k) equals Sort + Limit(k) on the key column.
func TestQuickTopKMatchesSortLimit(t *testing.T) {
	f := func(vals []int16, kRaw uint8) bool {
		if len(vals) == 0 {
			return true
		}
		k := int(kRaw)%len(vals) + 1
		rows := make([][]string, len(vals))
		for i, v := range vals {
			rows[i] = []string{value.Int(int64(v)).String()}
		}
		rel := FromStringsN([]string{"x"}, rows, 1)
		top, err := topKLocal(rel, "x", k, true)
		if err != nil {
			return false
		}
		sorted, err := SortLocal(rel, "x")
		if err != nil {
			return false
		}
		want := LimitLocal(sorted, k)
		if len(top.Rows) != len(want.Rows) {
			return false
		}
		for i := range want.Rows {
			a, _ := top.Rows[i][0].IntNum()
			b, _ := want.Rows[i][0].IntNum()
			if a != b {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
