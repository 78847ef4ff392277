package engine

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"pushdowndb/internal/csvx"
	"pushdowndb/internal/s3api"
	"pushdowndb/internal/sqlparse"
	"pushdowndb/internal/store"
	"pushdowndb/internal/value"
)

// The operator battery: every operator over worker spans must answer as it
// does over one span (Operators{}), rows and error text identical, on data
// that exercises the value layer's coercion corners — NULLs, NaN, dates,
// numeric-looking strings, space padding, date texts and mixed-kind
// columns — at worker counts that leave spans of uneven length. The join's
// oracle is a nested loop over value.Equal, which shares nothing with the
// hash table.

var spanCounts = []int{2, 3, 7}

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
		t.Errorf("%s: one span err=%v, spans err=%v", label, wantErr, gotErr)
		return
	}
	if wantErr == nil {
		identicalRel(t, label, want, got)
	}
}

// eachSpanCount runs op over one span and over each of spanCounts, and
// holds every answer to the one span's.
func eachSpanCount(t *testing.T, label string, op func(Operators) (*Relation, error)) {
	t.Helper()
	want, wantErr := op(Operators{})
	for _, w := range spanCounts {
		got, gotErr := op(Operators{Workers: w})
		sameAnswer(t, fmt.Sprintf("w=%d %s", w, label), want, got, wantErr, gotErr)
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
		eachSpanCount(t, fmt.Sprintf("pred=%q", pred), func(o Operators) (*Relation, error) { return o.Filter(rel, pe) })
	}
}

// TestFilterErrDiff: NOT over a non-boolean column errors in the evaluator,
// and every span count surfaces the one span's error — the lowest erroring
// row's.
func TestFilterErrDiff(t *testing.T) {
	rel := cellsRel(nastyData())
	for _, pred := range []string{"NOT name", "qty > 40 OR NOT name", "id > 100 AND NOT mix"} {
		pe, err := sqlparse.ParseExpr(pred)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := (Operators{}).Filter(rel, pe); err == nil {
			t.Fatalf("%s: one span kept its rows; want an error", pred)
		}
		eachSpanCount(t, pred, func(o Operators) (*Relation, error) { return o.Filter(rel, pe) })
	}
}

// TestProjectDiff: spans project as one span does, and every projected row
// is its own window (cap == len), so an append to one row never writes into
// the next.
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
		eachSpanCount(t, fmt.Sprintf("items=%q", items), func(o Operators) (*Relation, error) {
			out, err := o.Project(rel, sel.Items)
			if err == nil {
				for i, row := range out.Rows {
					if cap(row) != len(row) {
						t.Fatalf("Workers=%d items=%q: row %d has cap %d, len %d", o.Workers, items, i, cap(row), len(row))
					}
				}
			}
			return out, err
		})
	}
}

// TestGroupByDiff holds the span-parallel group-by — one aggregation block
// per span, merged in span order — to one span's one block: groups, their
// order and error text identical.
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
		eachSpanCount(t, fmt.Sprintf("group=%q items=%q", tc.groupBy, tc.items), func(o Operators) (*Relation, error) {
			return o.GroupBy(rel, sel.GroupBy, sel.Items)
		})
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

// TestHashJoinDiff holds the join over one span and over spans to the
// nested-loop oracle, on every key column against the probe's, build and
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
			for _, o := range []Operators{{}, {Workers: 2}, {Workers: 3}, {Workers: 7}} {
				got, err := o.HashJoin(b, p, bk, pk)
				if err != nil {
					t.Fatal(err)
				}
				identicalRel(t, fmt.Sprintf("Workers=%d key=%s swap=%v", o.Workers, key, swap), want, got)
			}
		}
	}
}

// TestHashJoinFarDates: a DATE whose year is outside 0000-9999 joins the
// text it renders as, which = matches, over one span and over spans, as
// the nested-loop oracle does; a text that is no day's rendering joins
// nothing.
func TestHashJoinFarDates(t *testing.T) {
	build := &Relation{Cols: []string{"d"}, Rows: []Row{{value.Date(3000000)}, {value.Date(-800000)}, {value.Date(0)}}}
	probe := &Relation{Cols: []string{"s"}, Rows: []Row{
		{value.Str("-0221-09-04")}, {value.Str("10183-09-21")}, {value.Str("1970-01-01")}, {value.Str("010183-09-21")}}}
	want := nestedLoopJoin(build, probe, "d", "s")
	if len(want.Rows) != 3 {
		t.Fatalf("the oracle joins %d pairs, want 3", len(want.Rows))
	}
	for _, o := range []Operators{{}, {Workers: 2}} {
		got, err := o.HashJoin(build, probe, "d", "s")
		if err != nil {
			t.Fatal(err)
		}
		identicalRel(t, fmt.Sprintf("Workers=%d", o.Workers), want, got)
	}
}

// TestEmptyRelations: every operator over no rows answers as one span does
// (the plain aggregation its one row).
func TestEmptyRelations(t *testing.T) {
	rel := cellsRel([]string{"a", "b"}, nil)
	grouped := selectOf(t, "SELECT a, COUNT(*) AS n FROM t GROUP BY a")
	agg := selectOf(t, "SELECT COUNT(*) AS n, SUM(b) AS s FROM t WHERE a > 1")
	for name, op := range map[string]func(Operators) (*Relation, error){
		"filter":    func(o Operators) (*Relation, error) { return o.Filter(rel, agg.Where) },
		"project":   func(o Operators) (*Relation, error) { return o.Project(rel, grouped.Items[:1]) },
		"groupby":   func(o Operators) (*Relation, error) { return o.GroupBy(rel, grouped.GroupBy, grouped.Items) },
		"aggregate": func(o Operators) (*Relation, error) { return o.GroupBy(rel, nil, agg.Items) },
		"join":      func(o Operators) (*Relation, error) { return o.HashJoin(rel, rel, "a", "b") },
	} {
		eachSpanCount(t, name, op)
	}
	if out, err := (Operators{Workers: 3}).GroupBy(rel, nil, agg.Items); err != nil || render(out, true) != "n|s\n0|" {
		t.Errorf("aggregate over no rows: %v, %v", out, err)
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
// operators: the filter and the group-by over 3 spans against one span, the
// self-join on c0 over 3 spans against its nested-loop oracle, and a
// group-by over every column across 1 to 8 spans, where a grouped scan's
// partitions would cut the rows.
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
		spans := Operators{Workers: 3}
		same := func(what string, op func(Operators) (*Relation, error)) {
			want, wantErr := op(Operators{})
			got, gotErr := op(spans)
			sameAnswer(t, what, want, got, wantErr, gotErr)
		}
		pred, _ := sqlparse.ParseExpr("c0 IS NOT NULL AND c0 >= '3'")
		same("filter", func(o Operators) (*Relation, error) { return o.Filter(rel, pred) })
		sel, _ := sqlparse.Parse("SELECT c0, COUNT(*) AS n FROM t GROUP BY c0")
		same("group-by", func(o Operators) (*Relation, error) { return o.GroupBy(rel, sel.GroupBy, sel.Items) })
		got, err := spans.HashJoin(rel, rel, "c0", "c0")
		if err != nil {
			t.Fatal(err)
		}
		identicalRel(t, "join", nestedLoopJoin(rel, rel, "c0", "c0"), got)

		all, err := sqlparse.Parse(fmt.Sprintf("SELECT %[1]s, COUNT(*) AS n FROM t GROUP BY %[1]s", strings.Join(cols, ", ")))
		if err != nil {
			t.Fatal(err)
		}
		want, err := Operators{}.GroupBy(rel, all.GroupBy, all.Items)
		if err != nil {
			t.Fatalf("group-by over one span: %v", err)
		}
		n := 1 + int(data[len(data)/2])%8
		got, err = Operators{Workers: n}.GroupBy(rel, all.GroupBy, all.Items)
		if err != nil {
			t.Fatalf("group-by over %d spans: %v", n, err)
		}
		identicalRel(t, fmt.Sprintf("group-by over %d spans", n), want, got)
	})
}
