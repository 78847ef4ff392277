package vec_test

import (
	"fmt"
	"strings"
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
		// As a select response's body, folded a chunk at a time: grouped by
		// every column, whose first is distinct per row, each group is its
		// row's cells as decoded.
		sel, err := sqlparse.Parse(fmt.Sprintf("SELECT %[1]s FROM t GROUP BY %[1]s", strings.Join(in.cols, ", ")))
		if err != nil {
			t.Fatal(err)
		}
		for _, chunk := range []int{1, 2, 7, 1024} {
			was := vec.SetChunkRows(chunk)
			fold, err := vec.NewFold(sel.GroupBy, sel.Items)
			if err == nil {
				err = fold.CSV(in.cols, csvx.Encode(nil, in.rows), int64(len(in.rows)))
			}
			vec.SetChunkRows(was)
			if err != nil {
				t.Fatal(err)
			}
			_, rows, err := vec.Finish(fold.Table, sel.Items)
			if err != nil || len(rows) != len(rel.Rows) {
				t.Fatalf("fold in chunks of %d: %d rows, %v; want %d", chunk, len(rows), err, len(rel.Rows))
			}
			for i, row := range rel.Rows {
				for c := range in.cols {
					if want, got := row[c], rows[i][c]; !sameVal(want, got) {
						t.Fatalf("fold in chunks of %d: cell[%d][%s]: row=%#v vec=%#v", chunk, i, in.cols[c], want, got)
					}
				}
			}
		}
		batches := map[string]*vec.Batch{}
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

// sameRows compares two relations cell by cell (byte identity, sameVal).
func sameRows(t *testing.T, label string, want, got *engine.Relation) {
	t.Helper()
	if fmt.Sprint(got.Cols) != fmt.Sprint(want.Cols) || len(got.Rows) != len(want.Rows) {
		t.Errorf("%s: %v x %d rows, reference %v x %d", label, got.Cols, len(got.Rows), want.Cols, len(want.Rows))
		return
	}
	for i := range want.Rows {
		for c := range want.Cols {
			if !sameVal(want.Rows[i][c], got.Rows[i][c]) {
				t.Fatalf("%s: cell[%d][%d]: row=%#v vec=%#v", label, i, c, want.Rows[i][c], got.Rows[i][c])
			}
		}
	}
}

// TestFilterDiff holds the compiled kernel to the reference filter on every
// shape it compiles, and the vectorized operator set — the kernel, or the
// row path over worker spans for a shape the kernel declines — on all.
func TestFilterDiff(t *testing.T) {
	cols, srows := nastyData()
	preds := []struct {
		sql      string
		compiled bool
	}{
		// compiled comparisons, typed fast paths
		{"qty > 24", true},
		{"qty >= 24 AND qty <= 30", true},
		{"price < 100.5 OR price > 800", true},
		{"price = 'NaN'", true},
		{"ship >= '1994-01-01' AND ship < '1995-01-01'", true},
		{"ship = '1994-03-15'", true},
		{"flag = 'A' OR flag = 'R'", true},
		{"flag <> 'a'", true},
		{"name = '7'", true},
		{"name = ' 7'", true},
		// compiled BETWEEN / IN / IS NULL / LIKE / NOT
		{"qty BETWEEN 10 AND 40", true},
		{"qty NOT BETWEEN 10 AND 40", true},
		{"flag IN ('A', 'N')", true},
		{"flag NOT IN ('A', 'N')", true},
		{"qty IS NULL", true},
		{"qty IS NOT NULL AND price > 1", true},
		{"name LIKE 'item%'", true},
		{"name NOT LIKE '%a'", true},
		{"flag LIKE '_'", true},
		{"NOT (flag = 'A')", true},
		// boxed columns and column-vs-column
		{"mix > 2", true},
		{"mix = '1.5'", true},
		{"id = mix", true},
		{"name > flag", true},
		// constants
		{"1 = 1", true},
		{"1 = 0 OR flag = 'A'", true},
		// declined shapes: arithmetic, a pattern that is not a literal (each
		// row matches its own pattern, at any span boundary)
		{"qty + 1 > 25", false},
		{"id - 1 < 100 AND qty > 24", false},
		{"name LIKE flag", false},
		{"flag LIKE name || '%'", false},
	}
	for _, w := range workerCounts {
		rel := rowRel(cols, srows)
		b := vec.FromStrings(cols, srows, w)
		for _, pred := range preds {
			label := fmt.Sprintf("w=%d pred=%q", w, pred.sql)
			pe, perr := sqlparse.ParseExpr(pred.sql)
			if perr != nil {
				t.Fatalf("%s: parse: %v", label, perr)
			}
			want, err := engine.Operators{}.Filter(rel, pe)
			if err != nil {
				t.Fatalf("%s: reference: %v", label, err)
			}
			got, err := engine.Operators{Vectorized: true, Workers: w}.Filter(rel, pe)
			if err != nil {
				t.Fatalf("%s: vectorized: %v", label, err)
			}
			sameRows(t, label, want, got)
			idx, ok := vec.Filter(b, pe, w)
			if ok != pred.compiled {
				t.Errorf("%s: compiled %v, want %v", label, ok, pred.compiled)
				continue
			}
			if !ok {
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

// TestFilterErrDiff: NOT over a non-boolean column errors in the evaluator;
// the kernel declines it, and the vectorized operator set surfaces the
// reference's error — the lowest erroring row's — at every worker count.
func TestFilterErrDiff(t *testing.T) {
	cols, srows := nastyData()
	rel := rowRel(cols, srows)
	for _, pred := range []string{"NOT name", "qty > 40 OR NOT name", "id > 100 AND NOT mix"} {
		pe, err := sqlparse.ParseExpr(pred)
		if err != nil {
			t.Fatal(err)
		}
		_, wantErr := engine.Operators{}.Filter(rel, pe)
		if wantErr == nil {
			t.Fatalf("%s: the reference kept its rows; want an error", pred)
		}
		for _, w := range workerCounts {
			_, gotErr := engine.Operators{Vectorized: true, Workers: w}.Filter(rel, pe)
			if gotErr == nil || gotErr.Error() != wantErr.Error() {
				t.Errorf("w=%d %s: row err=%v vec err=%v", w, pred, wantErr, gotErr)
			}
		}
	}
}

// TestProjectDiff: the vectorized operator set projects as the reference,
// at every worker count, and every projected row is its own window
// (cap == len), so an append to one row never writes into the next.
func TestProjectDiff(t *testing.T) {
	cols, srows := nastyData()
	itemLists := []string{
		"*",
		"id, flag",
		"flag AS f, qty",
		"id, qty + 1 AS q1, price * 2 AS p2",
		"'x' AS lit, id",
		"ship, mix, name",
		"*, id * 2 AS twice",
		"id, qty / (id - 100) AS q", // division by zero at id 100
		"id, mix + 1",               // arithmetic on "x0": the first boxed text cell
	}
	for _, w := range workerCounts {
		rel := rowRel(cols, srows)
		for _, items := range itemLists {
			label := fmt.Sprintf("w=%d items=%q", w, items)
			sel, perr := sqlparse.Parse("SELECT " + items + " FROM t")
			if perr != nil {
				t.Fatalf("%s: parse: %v", label, perr)
			}
			want, wantErr := engine.Operators{}.Project(rel, sel.Items)
			got, gotErr := engine.Operators{Vectorized: true, Workers: w}.Project(rel, sel.Items)
			if !sameErr(t, label, wantErr, gotErr) {
				continue
			}
			sameRows(t, label, want, got)
			for i, row := range got.Rows {
				if cap(row) != len(row) || cap(want.Rows[i]) != len(want.Rows[i]) {
					t.Fatalf("%s: row %d has cap %d, len %d (reference cap %d)", label, i, cap(row), len(row), cap(want.Rows[i]))
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
	if idx, ok := vec.Filter(b, pe, 3); !ok || len(idx) != 0 {
		t.Fatalf("empty filter: idx=%v compiled=%v", idx, ok)
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
