package vec_test

import (
	"fmt"
	"testing"

	"pushdowndb/internal/csvx"
	"pushdowndb/internal/engine"
	"pushdowndb/internal/sqlparse"
	"pushdowndb/internal/value"
	"pushdowndb/internal/vec"
)

// The differential battery: every kernel must agree with its row-path
// twin byte-for-byte on data that exercises the value layer's coercion
// corners — NULLs, NaN, dates, numeric-looking strings, space padding,
// and mixed-kind (boxed) columns — at several worker counts, including
// counts that split rows mid-word.

var workerCounts = []int{1, 2, 3, 7}

// nastyData builds a CSV-shaped table:
//
//	id    dense ints 1..n
//	qty   ints with NULLs
//	price floats with NaN and NULLs
//	ship  dates with NULLs
//	flag  pure strings (typed string vector)
//	name  strings mixed with numeric-looking cells (boxed vector)
//	mix   alternating int/float/string (boxed vector)
func nastyData() ([]string, [][]string) {
	cols := []string{"id", "qty", "price", "ship", "flag", "name", "mix"}
	seed := uint64(42)
	next := func(m int) int {
		seed = seed*6364136223846793005 + 1442695040888963407
		return int((seed >> 33) % uint64(m))
	}
	dates := []string{"1993-12-31", "1994-03-15", "1994-07-01", "1995-01-01", "1996-10-09"}
	flags := []string{"A", "R", "N", "a"}
	names := []string{"item alpha", "item beta", "ITEM gamma", " 7", "7", "00501", "", "naNish"}
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

// rowRel is the row path's reference: every cell typed on its own by the
// one short-row rule (value.CSVCell), sharing nothing with the decoders
// under test.
func rowRel(cols []string, cells [][]string) *engine.Relation {
	rel := &engine.Relation{Cols: cols}
	for _, r := range cells {
		row := make(engine.Row, len(cols))
		for j := range row {
			row[j] = value.CSVCell(r, j)
		}
		rel.Rows = append(rel.Rows, row)
	}
	return rel
}

// sameVal is the byte-identity check: same kind, same rendered form.
// (Compare would call " 7" and "7" equal; the renderer does not.)
func sameVal(a, b value.Value) bool {
	return a.Kind() == b.Kind() && a.String() == b.String()
}

func sameErr(t *testing.T, label string, want, got error) bool {
	t.Helper()
	if (want != nil) != (got != nil) {
		t.Errorf("%s: row err=%v vec err=%v", label, want, got)
		return false
	}
	if want != nil {
		if want.Error() != got.Error() {
			t.Errorf("%s: row err=%q vec err=%q", label, want, got)
		}
		return false
	}
	return true
}

func TestFromStringsDiff(t *testing.T) {
	cols, srows := nastyData()
	// Ragged rows decode alike on both paths: a short row reads NULL past
	// its end, and an over-long row's extra cell is not part of the row.
	ragged := [][]string{{"1", "2"}, {"3"}, {"4", "5", "x"}, {}}
	for _, in := range []struct {
		cols []string
		rows [][]string
	}{{cols, srows}, {[]string{"a", "b"}, ragged}} {
		rel := rowRel(in.cols, in.rows)
		fromCSV, err := vec.FromCSV(in.cols, csvx.Encode(nil, in.rows), int64(len(in.rows)))
		if err != nil {
			t.Fatal(err)
		}
		batches := map[string]*vec.Batch{"FromCSV": fromCSV}
		for _, w := range workerCounts {
			batches[fmt.Sprintf("FromStrings w=%d", w)] = vec.FromStrings(in.cols, in.rows, w)
		}
		for name, b := range batches {
			if b.Len() != len(rel.Rows) || len(b.Vecs) != len(rel.Cols) {
				t.Fatalf("%s: shape %dx%d want %dx%d", name, b.Len(), len(b.Vecs), len(rel.Rows), len(rel.Cols))
			}
			for i, row := range rel.Rows {
				for c := range in.cols {
					if want, got := row[c], b.Vecs[c].Value(i); !sameVal(want, got) {
						t.Fatalf("%s: cell[%d][%s]: row=%#v vec=%#v", name, i, in.cols[c], want, got)
					}
				}
			}
		}
	}
}

func TestFilterDiff(t *testing.T) {
	cols, srows := nastyData()
	preds := []string{
		// compiled comparisons, typed fast paths
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
		// compiled BETWEEN / IN / IS NULL / LIKE / NOT
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
		// boxed columns and column-vs-column
		"mix > 2",
		"mix = '1.5'",
		"id = mix",
		"name > flag",
		// constants
		"1 = 1",
		"1 = 0 OR flag = 'A'",
		// fallback shapes (arithmetic, non-literal LIKE pattern — the row
		// path evaluates the pattern on the first row each worker sees and
		// caches it; identical spans make that deterministic in both paths)
		"qty + 1 > 25",
		"id - 1 < 100 AND qty > 24",
		"name LIKE flag",
	}
	for _, w := range workerCounts {
		rel := rowRel(cols, srows)
		b := vec.FromStrings(cols, srows, w)
		for _, pred := range preds {
			label := fmt.Sprintf("w=%d pred=%q", w, pred)
			pe, perr := sqlparse.ParseExpr(pred)
			if perr != nil {
				t.Fatalf("%s: parse: %v", label, perr)
			}
			want, wantErr := engine.Operators{}.Filter(rel, pe)
			idx, gotErr := vec.Filter(b, pe, w)
			if !sameErr(t, label, wantErr, gotErr) {
				continue
			}
			if len(idx) != len(want.Rows) {
				t.Errorf("%s: kept %d rows, row path kept %d", label, len(idx), len(want.Rows))
				continue
			}
			for r, i := range idx {
				for c := range cols {
					if wv, gv := want.Rows[r][c], b.Vecs[c].Value(i); !sameVal(wv, gv) {
						t.Fatalf("%s: row %d col %s: row=%#v vec=%#v", label, r, cols[c], wv, gv)
					}
				}
			}
		}
	}
}

func TestFilterErrDiff(t *testing.T) {
	cols, srows := nastyData()
	rel := rowRel(cols, srows)
	b := vec.FromStrings(cols, srows, 3)
	// NOT over a non-boolean column errors in the evaluator; the vec path
	// must fall back and surface the identical first-in-worker-order error.
	pred := "NOT name"
	pe, err := sqlparse.ParseExpr(pred)
	if err != nil {
		t.Fatal(err)
	}
	_, wantErr := engine.Operators{}.Filter(rel, pe)
	_, gotErr := vec.Filter(b, pe, 3)
	if wantErr == nil || gotErr == nil || wantErr.Error() != gotErr.Error() {
		t.Fatalf("row err=%v vec err=%v", wantErr, gotErr)
	}
}

func TestProjectDiff(t *testing.T) {
	cols, srows := nastyData()
	itemLists := []string{
		"*",
		"id, flag",
		"flag AS f, qty",
		"id, qty + 1 AS q1, price * 2 AS p2",
		"'x' AS lit, id",
		"ship, mix, name",
	}
	for _, w := range workerCounts {
		rel := rowRel(cols, srows)
		b := vec.FromStrings(cols, srows, w)
		for _, items := range itemLists {
			label := fmt.Sprintf("w=%d items=%q", w, items)
			sel, perr := sqlparse.Parse("SELECT " + items + " FROM t")
			if perr != nil {
				t.Fatalf("%s: parse: %v", label, perr)
			}
			want, wantErr := engine.Operators{}.Project(rel, sel.Items)
			out, gotErr := vec.Project(b, sel, w)
			if !sameErr(t, label, wantErr, gotErr) {
				continue
			}
			if fmt.Sprint(out.Cols) != fmt.Sprint(want.Cols) {
				t.Errorf("%s: cols %v want %v", label, out.Cols, want.Cols)
				continue
			}
			rows := out.ToRows()
			if len(rows) != len(want.Rows) {
				t.Errorf("%s: %d rows want %d", label, len(rows), len(want.Rows))
				continue
			}
			for i := range rows {
				for c := range want.Cols {
					if !sameVal(want.Rows[i][c], rows[i][c]) {
						t.Fatalf("%s: cell[%d][%d]: row=%#v vec=%#v", label, i, c, want.Rows[i][c], rows[i][c])
					}
				}
			}
		}
	}
}

func TestGroupByDiff(t *testing.T) {
	cols, srows := nastyData()
	cases := []struct{ groupBy, items string }{
		{"flag", "flag, COUNT(*) AS n, SUM(qty) AS sq, AVG(price) AS ap, MIN(name) AS mn, MAX(ship) AS mx"},
		{"flag, ship", "flag, ship, COUNT(*) AS n, SUM(price) AS sp"},
		{"qty", "qty, COUNT(*) AS n"},
		{"mix", "mix, SUM(id) AS s"},
		{"flag", "flag, SUM(qty + 1) AS s1, AVG(qty) AS aq"},
	}
	for _, w := range workerCounts {
		rel := rowRel(cols, srows)
		b := vec.FromStrings(cols, srows, w)
		for _, tc := range cases {
			label := fmt.Sprintf("w=%d group=%q items=%q", w, tc.groupBy, tc.items)
			sel, perr := sqlparse.Parse("SELECT " + tc.items + " FROM t GROUP BY " + tc.groupBy)
			if perr != nil {
				t.Fatalf("%s: parse: %v", label, perr)
			}
			want, wantErr := engine.Operators{}.GroupBy(rel, sel.GroupBy, sel.Items)
			gotCols, gotRows, gotErr := vec.GroupBy(b, sel, w)
			if !sameErr(t, label, wantErr, gotErr) {
				continue
			}
			if fmt.Sprint(gotCols) != fmt.Sprint(want.Cols) {
				t.Errorf("%s: cols %v want %v", label, gotCols, want.Cols)
				continue
			}
			if len(gotRows) != len(want.Rows) {
				t.Errorf("%s: %d groups want %d", label, len(gotRows), len(want.Rows))
				continue
			}
			for i := range gotRows {
				for c := range want.Cols {
					if !sameVal(want.Rows[i][c], gotRows[i][c]) {
						t.Fatalf("%s: group %d col %s: row=%#v vec=%#v",
							label, i, want.Cols[c], want.Rows[i][c], gotRows[i][c])
					}
				}
			}
		}
	}
}

func TestJoinPairsDiff(t *testing.T) {
	cols, srows := nastyData()
	rcols := []string{"rid", "tag"}
	var rrows [][]string
	for i := 0; i < 53; i++ {
		rid := fmt.Sprint(i * 3 % 140) // overlaps id range, with misses
		switch i % 7 {
		case 0:
			rid = "" // NULL key: never joins
		case 1:
			rid = fmt.Sprint(i % 9) // duplicate keys
		case 2:
			rid = "x" + fmt.Sprint(i) // string key
		}
		rrows = append(rrows, []string{rid, fmt.Sprintf("tag%d", i)})
	}
	for _, w := range workerCounts {
		left := rowRel(cols, srows)
		right := rowRel(rcols, rrows)
		lb := vec.FromStrings(cols, srows, w)
		rb := vec.FromStrings(rcols, rrows, w)
		for _, key := range []string{"id", "mix"} {
			label := fmt.Sprintf("w=%d key=%s", w, key)
			want, err := engine.Operators{}.HashJoin(left, right, key, "rid")
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			bi, pi := vec.JoinPairs(lb.Vecs[lb.ColIndex(key)], rb.Vecs[rb.ColIndex("rid")], w)
			if len(bi) != len(want.Rows) {
				t.Fatalf("%s: %d pairs, row path %d", label, len(bi), len(want.Rows))
			}
			for k := range bi {
				for c := range cols {
					if !sameVal(want.Rows[k][c], lb.Vecs[c].Value(bi[k])) {
						t.Fatalf("%s: pair %d left col %s mismatch", label, k, cols[c])
					}
				}
				for c := range rcols {
					if !sameVal(want.Rows[k][len(cols)+c], rb.Vecs[c].Value(pi[k])) {
						t.Fatalf("%s: pair %d right col %s mismatch", label, k, rcols[c])
					}
				}
			}
		}
	}
}

func TestEmptyRelations(t *testing.T) {
	cols := []string{"a", "b"}
	rel := rowRel(cols, nil)
	b := vec.FromStrings(cols, nil, 3)
	if b.Len() != 0 {
		t.Fatalf("empty FromStrings: len=%d", b.Len())
	}
	pe, _ := sqlparse.ParseExpr("a > 1")
	idx, err := vec.Filter(b, pe, 3)
	if err != nil || len(idx) != 0 {
		t.Fatalf("empty filter: idx=%v err=%v", idx, err)
	}
	sel, _ := sqlparse.Parse("SELECT a, COUNT(*) AS n FROM t GROUP BY a")
	want, _ := engine.Operators{}.GroupBy(rel, sel.GroupBy, sel.Items)
	gotCols, gotRows, err := vec.GroupBy(b, sel, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotRows) != len(want.Rows) || fmt.Sprint(gotCols) != fmt.Sprint(want.Cols) {
		t.Fatalf("empty group-by: %v/%v want %v/%v", gotCols, gotRows, want.Cols, want.Rows)
	}
}
