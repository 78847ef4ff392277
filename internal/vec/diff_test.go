package vec_test

import (
	"fmt"
	"testing"

	"pushdowndb/internal/value"
	"pushdowndb/internal/vec"
)

// The decode differential: FromStrings must type every cell as the row
// path does (value.CSVCell), byte for byte, on data that exercises the value
// layer's coercion corners — NULLs, NaN, dates, numeric-looking strings,
// space padding, and mixed-kind (boxed) columns — at several worker counts.
// The operators' battery over the same corners lives with the operators
// (engine's TestFilterDiff and its neighbours).

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

// rowCells is the row path's reference: every cell typed on its own by the
// one short-row rule (value.CSVCell), sharing nothing with the decoders
// under test.
func rowCells(width int, cells [][]string) [][]value.Value {
	rows := make([][]value.Value, len(cells))
	for i, r := range cells {
		rows[i] = make([]value.Value, width)
		for j := range rows[i] {
			rows[i][j] = value.CSVCell(r, j)
		}
	}
	return rows
}

// sameVal is the byte-identity check: same kind, same rendered form.
// (Compare would call " 7" and "7" equal; the renderer does not.)
func sameVal(a, b value.Value) bool {
	return a.Kind() == b.Kind() && a.String() == b.String()
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
		rows := rowCells(len(in.cols), in.rows)
		batches := map[string]*vec.Batch{}
		for _, w := range workerCounts {
			batches[fmt.Sprintf("FromStrings w=%d", w)] = vec.FromStrings(in.cols, in.rows, w)
		}
		for name, b := range batches {
			if b.Len() != len(rows) || len(b.Vecs) != len(in.cols) {
				t.Fatalf("%s: shape %dx%d want %dx%d", name, b.Len(), len(b.Vecs), len(rows), len(in.cols))
			}
			for i, row := range rows {
				for c := range in.cols {
					if want, got := row[c], b.Vecs[c].Value(i); !sameVal(want, got) {
						t.Fatalf("%s: cell[%d][%s]: row=%#v vec=%#v", name, i, in.cols[c], want, got)
					}
				}
			}
		}
	}
}
