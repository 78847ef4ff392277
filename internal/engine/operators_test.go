package engine

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"pushdowndb/internal/csvx"
	"pushdowndb/internal/expr"
	"pushdowndb/internal/s3api"
	"pushdowndb/internal/sqlparse"
	"pushdowndb/internal/store"
	"pushdowndb/internal/value"
)

// The operator battery: each operator, one loop over its rows, answers as
// its oracle does, rows and error text identical, on data that exercises
// the value layer's coercion corners — NULLs, NaN, dates, numeric-looking
// strings, space padding, date texts and mixed-kind columns. A row operator's
// oracle is the operator over each row on its own (rowByRow); the group-by's
// is one block fed the rows cut into pieces, merged in order (cutFold), as a
// grouped load's partitions are; the join's is a nested loop over
// value.Equal, which shares nothing with the hash table.

// cutCounts are the pieces cutFold cuts a relation into: pieces of uneven
// length.
var cutCounts = []int{2, 3, 7}

// nastyData builds a CSV-shaped table:
//
//	id    dense ints 1..n
//	qty   ints with NULLs
//	price floats with NaN and NULLs
//	ship  dates with NULLs
//	flag  pure strings
//	name  strings mixed with numeric-looking and date-text cells
//	mix   alternating int/float/string
func nastyData() ([]string, [][]string) {
	cols := []string{"id", "qty", "price", "ship", "flag", "name", "mix"}
	seed := uint64(42)
	next := func(m int) int {
		seed = seed*6364136223846793005 + 1442695040888963407
		return int((seed >> 33) % uint64(m))
	}
	dates := []string{"1993-12-31", "1994-03-15", "1994-07-01", "1995-01-01", "1996-10-09"}
	flags := []string{"A", "R", "N", "a"}
	names := []string{"item alpha", "item beta", "ITEM gamma", " 7", "7", "00501", "", "naNish", "12 ", "1994-03-15", "true"}
	var rows [][]string
	for i := 0; i < 137; i++ {
		qty := ""
		if next(10) != 0 {
			qty = fmt.Sprint(next(50))
		}
		var price string
		switch next(12) {
		case 0:
			price = "NaN"
		case 1:
			price = ""
		default:
			price = fmt.Sprintf("%d.%02d", next(900), next(100))
		}
		ship := ""
		if next(8) != 0 {
			ship = dates[next(len(dates))]
		}
		var mix string
		switch i % 3 {
		case 0:
			mix = fmt.Sprint(next(5))
		case 1:
			mix = fmt.Sprintf("%d.5", next(5))
		default:
			mix = "x" + fmt.Sprint(next(5))
		}
		rows = append(rows, []string{
			fmt.Sprint(i + 1), qty, price, ship,
			flags[next(len(flags))], names[next(len(names))], mix,
		})
	}
	return cols, rows
}

// cellsRel is a relation of CSV cells, each typed on its own by the one
// short-row rule (value.CSVCell).
func cellsRel(cols []string, cells [][]string) *Relation {
	rel := &Relation{Cols: cols, Rows: make([]Row, len(cells))}
	for i, r := range cells {
		rel.Rows[i] = make(Row, len(cols))
		for j := range cols {
			rel.Rows[i][j] = value.CSVCell(r, j)
		}
	}
	return rel
}

// sameAnswer holds got to want: the same error text, or identical relations.
func sameAnswer(t *testing.T, label string, want, got *Relation, wantErr, gotErr error) {
	t.Helper()
	if fmt.Sprint(wantErr) != fmt.Sprint(gotErr) {
		t.Errorf("%s: oracle err=%v, operator err=%v", label, wantErr, gotErr)
		return
	}
	if wantErr == nil {
		identicalRel(t, label, want, got)
	}
}

// rowByRow is a row operator's oracle: op over each row of rel as a relation
// of its own, their rows concatenated in order, or the first row's error;
// over no rows, op's own answer.
func rowByRow(rel *Relation, op func(*Relation) (*Relation, error)) (*Relation, error) {
	if len(rel.Rows) == 0 {
		return op(rel)
	}
	var out *Relation
	for _, row := range rel.Rows {
		one, err := op(&Relation{Cols: rel.Cols, Rows: []Row{row}})
		if err != nil {
			return nil, err
		}
		if out == nil {
			out = &Relation{Cols: one.Cols, Rows: []Row{}}
		}
		out.Rows = append(out.Rows, one.Rows...)
	}
	return out, nil
}

// checkRowByRow holds op over rel to its rowByRow oracle.
func checkRowByRow(t *testing.T, label string, rel *Relation, op func(*Relation) (*Relation, error)) {
	t.Helper()
	want, wantErr := rowByRow(rel, op)
	got, gotErr := op(rel)
	sameAnswer(t, label, want, got, wantErr, gotErr)
}

// cutFold is GroupBy's oracle: rel's rows cut into n contiguous pieces, as a
// grouped load's partitions cut them, the first fed to one aggregation
// block and each later one to a RowExec.Partial of it, merged in order.
func cutFold(rel *Relation, n int, keys []sqlparse.Expr, items []sqlparse.SelectItem) (*Relation, error) {
	out := &Relation{Cols: itemCols(rel, items)}
	x, err := expr.NewAggregation(rel.Cols, nil, keys, sqlparse.ItemExprs(items), out.collect())
	if err != nil {
		return nil, err
	}
	blocks := []*expr.RowExec{x}
	for k := 1; k < n; k++ {
		blocks = append(blocks, x.Partial())
	}
	for k, b := range blocks {
		for _, row := range rel.Rows[len(rel.Rows)*k/n : len(rel.Rows)*(k+1)/n] {
			if err := b.Add(row); err != nil {
				return nil, err
			}
		}
		if k > 0 {
			if err := x.Merge(b); err != nil {
				return nil, err
			}
		}
	}
	if err := x.Finish(); err != nil {
		return nil, err
	}
	return out, nil
}

// checkCutFold holds GroupBy over rel to cutFold's answer at each of
// cutCounts.
func checkCutFold(t *testing.T, label string, rel *Relation, keys []sqlparse.Expr, items []sqlparse.SelectItem) {
	t.Helper()
	got, gotErr := GroupBy(rel, keys, items)
	for _, n := range cutCounts {
		want, wantErr := cutFold(rel, n, keys, items)
		sameAnswer(t, fmt.Sprintf("%d pieces %s", n, label), want, got, wantErr, gotErr)
	}
}

func TestFilterDiff(t *testing.T) {
	rel := cellsRel(nastyData())
	for _, pred := range []string{
		"qty > 24",
		"qty >= 24 AND qty <= 30",
		"price < 100.5 OR price > 800",
		"price = 'NaN'",
		"ship >= '1994-01-01' AND ship < '1995-01-01'",
		"ship = '1994-03-15'",
		"flag = 'A' OR flag = 'R'",
		"flag <> 'a'",
		"name = '7'",
		"name = ' 7'",
		"name = 12",
		"qty BETWEEN 10 AND 40",
		"qty NOT BETWEEN 10 AND 40",
		"flag IN ('A', 'N')",
		"flag NOT IN ('A', 'N')",
		"qty IS NULL",
		"qty IS NOT NULL AND price > 1",
		"name LIKE 'item%'",
		"name NOT LIKE '%a'",
		"flag LIKE '_'",
		"NOT (flag = 'A')",
		"mix > 2",
		"mix = '1.5'",
		"id = mix",
		"name > flag",
		"ship = name",
		"1 = 1",
		"1 = 0 OR flag = 'A'",
		"qty + 1 > 25",
		"id - 1 < 100 AND qty > 24",
		// A pattern that is not a literal: each row matches its own.
		"name LIKE flag",
		"flag LIKE name || '%'",
	} {
		pe, err := sqlparse.ParseExpr(pred)
		if err != nil {
			t.Fatalf("%q: %v", pred, err)
		}
		checkRowByRow(t, fmt.Sprintf("pred=%q", pred), rel, func(r *Relation) (*Relation, error) { return Filter(r, pe) })
	}
}

// TestFilterErrDiff: NOT over a non-boolean column errors in the evaluator,
// and the filter surfaces the lowest erroring row's error.
func TestFilterErrDiff(t *testing.T) {
	rel := cellsRel(nastyData())
	for _, pred := range []string{"NOT name", "qty > 40 OR NOT name", "id > 100 AND NOT mix"} {
		pe, err := sqlparse.ParseExpr(pred)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Filter(rel, pe); err == nil {
			t.Fatalf("%s: the filter kept its rows; want an error", pred)
		}
		checkRowByRow(t, pred, rel, func(r *Relation) (*Relation, error) { return Filter(r, pe) })
	}
}

// TestProjectDiff: the projection answers row by row, and every projected
// row is its own window (cap == len), so an append to one row never writes
// into the next.
func TestProjectDiff(t *testing.T) {
	rel := cellsRel(nastyData())
	for _, items := range []string{
		"*",
		"id, flag",
		"flag AS f, qty",
		"id, qty + 1 AS q1, price * 2 AS p2",
		"'x' AS lit, id",
		"ship, mix, name",
		"*, id * 2 AS twice",
		"id, qty / (id - 100) AS q", // division by zero at id 100
		"id, mix + 1",               // arithmetic on "x0": the first text cell
	} {
		sel := selectOf(t, "SELECT "+items+" FROM t")
		checkRowByRow(t, fmt.Sprintf("items=%q", items), rel, func(r *Relation) (*Relation, error) {
			out, err := Project(r, sel.Items)
			if err == nil {
				for i, row := range out.Rows {
					if cap(row) != len(row) {
						t.Fatalf("items=%q: row %d has cap %d, len %d", items, i, cap(row), len(row))
					}
				}
			}
			return out, err
		})
	}
}

// TestGroupByDiff holds the group-by's one block to the rows cut into
// pieces, one block per piece merged in order (cutFold): groups, their order
// and error text identical.
func TestGroupByDiff(t *testing.T) {
	rel := cellsRel(nastyData())
	for _, tc := range []struct{ groupBy, items string }{
		{"flag", "flag, COUNT(*) AS n, SUM(qty) AS sq, AVG(price) AS ap, MIN(name) AS mn, MAX(ship) AS mx"},
		{"flag, ship", "flag, ship, COUNT(*) AS n, SUM(price) AS sp"},
		{"qty", "qty, COUNT(*) AS n"},
		{"mix", "mix, SUM(id) AS s"},
		{"name", "name, COUNT(*) AS n"},
		{"flag", "flag, SUM(qty + 1) AS s1, AVG(qty) AS aq"},
		{"ship", "ship, COUNT(*) AS n, MIN(price) AS lo"},
		{"flag", "flag, SUM(name) AS bad"},
	} {
		sel := selectOf(t, "SELECT "+tc.items+" FROM t GROUP BY "+tc.groupBy)
		checkCutFold(t, fmt.Sprintf("group=%q items=%q", tc.groupBy, tc.items), rel, sel.GroupBy, sel.Items)
	}
}

// nestedLoopJoin is the join's oracle: every (build, probe) pair whose keys
// value.Equal matches, probe rows ascending and each one's build rows
// ascending.
func nestedLoopJoin(left, right *Relation, lk, rk string) *Relation {
	li, ri := left.ColIndex(lk), right.ColIndex(rk)
	out := &Relation{Cols: append(append([]string{}, left.Cols...), right.Cols...), Rows: []Row{}}
	for _, r := range right.Rows {
		for _, l := range left.Rows {
			if value.Equal(l[li], r[ri]) {
				out.Rows = append(out.Rows, append(append(Row{}, l...), r...))
			}
		}
	}
	return out
}

// joinProbeData is the probe side TestHashJoinDiff joins nastyData to: rid
// overlaps the id range with misses, and holds NULLs, duplicates, text,
// space-padded numbers, a float spelling, date texts and a boolean text.
func joinProbeData() ([]string, [][]string) {
	var rows [][]string
	for i := 0; i < 60; i++ {
		rid := fmt.Sprint(i * 3 % 140)
		switch i % 10 {
		case 0:
			rid = "" // NULL key: never joins
		case 1:
			rid = fmt.Sprint(i % 9) // duplicate keys
		case 2:
			rid = "x" + fmt.Sprint(i)
		case 3:
			rid = fmt.Sprintf(" %d", i%13)
		case 4:
			rid = fmt.Sprintf("%d ", i%13)
		case 5:
			rid = fmt.Sprintf("%d.0", i%13)
		case 6:
			rid = []string{"1994-03-15", "1995-01-01", "1994-3-15"}[i%3]
		case 7:
			rid = []string{"true", "7", "00501", "item beta"}[i%4]
		}
		rows = append(rows, []string{rid, fmt.Sprintf("tag%d", i)})
	}
	return []string{"rid", "tag"}, rows
}

// TestHashJoinDiff holds the join to the nested-loop oracle, on every key column against the probe's, build and
// probe sides both ways.
func TestHashJoinDiff(t *testing.T) {
	left := cellsRel(nastyData())
	right := cellsRel(joinProbeData())
	for _, key := range []string{"id", "qty", "mix", "ship", "name"} {
		for _, swap := range []bool{false, true} {
			b, p, bk, pk := left, right, key, "rid"
			if swap {
				b, p, bk, pk = right, left, "rid", key
			}
			want := nestedLoopJoin(b, p, bk, pk)
			if len(want.Rows) == 0 {
				t.Fatalf("key %s: the oracle joins nothing", key)
			}
			got, err := HashJoin(b, p, bk, pk)
			if err != nil {
				t.Fatal(err)
			}
			identicalRel(t, fmt.Sprintf("key=%s swap=%v", key, swap), want, got)
		}
	}
}

// TestHashJoinFarDates: a DATE whose year is outside 0000-9999 joins the
// text it renders as, which = matches, as the nested-loop oracle does; a
// text that is no day's rendering joins nothing.
func TestHashJoinFarDates(t *testing.T) {
	build := &Relation{Cols: []string{"d"}, Rows: []Row{{value.Date(3000000)}, {value.Date(-800000)}, {value.Date(0)}}}
	probe := &Relation{Cols: []string{"s"}, Rows: []Row{
		{value.Str("-0221-09-04")}, {value.Str("10183-09-21")}, {value.Str("1970-01-01")}, {value.Str("010183-09-21")}}}
	want := nestedLoopJoin(build, probe, "d", "s")
	if len(want.Rows) != 3 {
		t.Fatalf("the oracle joins %d pairs, want 3", len(want.Rows))
	}
	got, err := HashJoin(build, probe, "d", "s")
	if err != nil {
		t.Fatal(err)
	}
	identicalRel(t, "far dates", want, got)
}

// TestEmptyRelations: every operator over no rows answers no rows under its
// columns, but the plain aggregation its one row.
func TestEmptyRelations(t *testing.T) {
	rel := cellsRel([]string{"a", "b"}, nil)
	grouped := selectOf(t, "SELECT a, COUNT(*) AS n FROM t GROUP BY a")
	agg := selectOf(t, "SELECT COUNT(*) AS n, SUM(b) AS s FROM t WHERE a > 1")
	for name, tc := range map[string]struct {
		op   func() (*Relation, error)
		want string
	}{
		"filter":    {func() (*Relation, error) { return Filter(rel, agg.Where) }, "a|b\n"},
		"project":   {func() (*Relation, error) { return Project(rel, grouped.Items[:1]) }, "a\n"},
		"groupby":   {func() (*Relation, error) { return GroupBy(rel, grouped.GroupBy, grouped.Items) }, "a|n\n"},
		"aggregate": {func() (*Relation, error) { return GroupBy(rel, nil, agg.Items) }, "n|s\n0|"},
		"join":      {func() (*Relation, error) { return HashJoin(rel, rel, "a", "b") }, "a|b|a|b\n"},
	} {
		if out, err := tc.op(); err != nil || render(out, true) != tc.want {
			t.Errorf("%s over no rows: %v, %v; want\n%s", name, out, err, tc.want)
		}
	}
}

// TestJoinMatchesWhatEqualsMatches: a join answers every pair whose keys =
// matches — a padded number against the integer it equals — on each of
// Join's algorithms and the planned statement, as a WHERE over the same
// cells does.
func TestJoinMatchesWhatEqualsMatches(t *testing.T) {
	ctx := context.Background()
	st := store.New()
	st.Put(diffBucket, store.PartitionKey("pa", 0), csvx.Encode([]string{"k", "x"}, [][]string{{"3", "a"}, {"4", "b"}, {"5", "c"}}))
	st.Put(diffBucket, store.PartitionKey("pb", 0), csvx.Encode([]string{"j", "y"}, [][]string{{" 3", "p"}, {"4", "q"}, {"5 ", "r"}}))
	db, err := Open(diffBucket, WithBackend("inproc", s3api.NewInProc(st)))
	if err != nil {
		t.Fatal(err)
	}
	where, _, err := db.QueryContext(ctx, "SELECT y FROM pb WHERE j = 3")
	if err != nil || render(where, true) != "y\np" {
		t.Fatalf("WHERE j = 3: %v, %v", where, err)
	}
	const sql = "SELECT * FROM pa JOIN pb ON pa.k = pb.j"
	const want = "k|x|j|y\n3|a| 3|p\n4|b|4|q\n5|c|5 |r"
	for _, algo := range []string{StrategyBaseline, StrategyFiltered, StrategyBloom} {
		got, err := db.NewExecContext(ctx).Join(JoinSpec{SQL: sql}, algo)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if r := render(got, false); r != want {
			t.Errorf("Join %s:\n%s\nwant\n%s", algo, r, want)
		}
	}
	planned, _, err := db.QueryContext(ctx, sql)
	if err != nil {
		t.Fatal(err)
	}
	if r := render(planned, false); r != want {
		t.Errorf("planned:\n%s\nwant\n%s", r, want)
	}
}

// FuzzOperators feeds arbitrary bytes, decoded as a CSV table, through the
// operators: the filter against its row-by-row oracle, the group-by against
// the rows cut into 3 pieces, the self-join on c0 against its nested-loop
// oracle, and a group-by over every column against the rows cut into 1 to 8
// pieces, where a grouped scan's partitions would cut them.
func FuzzOperators(f *testing.F) {
	f.Add([]byte("a,b\n1,2\n3,\n"))
	f.Add([]byte("a,b\n1\n2,3,x\n"))
	f.Add([]byte("h\nNaN\n 7\n1994-03-15\n00501\n"))
	f.Add([]byte("k,v\n 3,a\n3,b\n3.0 ,c\n1994-03-15,d\ntrue,e\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Synthetic column names keep fuzz-shaped headers out of the SQL.
		header, cells, err := csvx.Decode(data, true)
		if err != nil || len(header) == 0 {
			return
		}
		cols := make([]string, len(header))
		for i := range cols {
			cols[i] = fmt.Sprintf("c%d", i)
		}
		rel := cellsRel(cols, cells)
		pred, _ := sqlparse.ParseExpr("c0 IS NOT NULL AND c0 >= '3'")
		checkRowByRow(t, "filter", rel, func(r *Relation) (*Relation, error) { return Filter(r, pred) })
		sel, _ := sqlparse.Parse("SELECT c0, COUNT(*) AS n FROM t GROUP BY c0")
		want, wantErr := cutFold(rel, 3, sel.GroupBy, sel.Items)
		got, gotErr := GroupBy(rel, sel.GroupBy, sel.Items)
		sameAnswer(t, "group-by", want, got, wantErr, gotErr)
		got, err = HashJoin(rel, rel, "c0", "c0")
		if err != nil {
			t.Fatal(err)
		}
		identicalRel(t, "join", nestedLoopJoin(rel, rel, "c0", "c0"), got)

		all, err := sqlparse.Parse(fmt.Sprintf("SELECT %[1]s, COUNT(*) AS n FROM t GROUP BY %[1]s", strings.Join(cols, ", ")))
		if err != nil {
			t.Fatal(err)
		}
		got, err = GroupBy(rel, all.GroupBy, all.Items)
		if err != nil {
			t.Fatalf("group-by: %v", err)
		}
		n := 1 + int(data[len(data)/2])%8
		want, err = cutFold(rel, n, all.GroupBy, all.Items)
		if err != nil {
			t.Fatalf("group-by over %d pieces: %v", n, err)
		}
		identicalRel(t, fmt.Sprintf("group-by over %d pieces", n), want, got)
	})
}
