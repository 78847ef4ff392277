package engine

import (
	"fmt"
	"reflect"
	"testing"

	"pushdowndb/internal/csvx"
	"pushdowndb/internal/race"
	"pushdowndb/internal/value"
)

// ordersCells is a rows-row table with a number, a date, a float and two
// text cells per row — every kind decode has to type or copy.
func ordersCells(rows int) ([]string, [][]string) {
	cells := make([][]string, rows)
	for i := range cells {
		cells[i] = []string{fmt.Sprint(rows - i), "1996-03-13", fmt.Sprintf("%d.25", i%97), "5-LOW", fmt.Sprintf("Clerk#%09d", i%1000)}
	}
	return []string{"o_orderkey", "o_orderdate", "o_totalprice", "o_orderpriority", "o_clerk"}, cells
}

// TestDecodeAllocatesPerChunk pins the per-response rule on the compute
// side: typing a select response, decoding a GET's CSV and sorting cost a
// fixed number of allocations plus one per chunk as chunks double — not
// one per row (FromStringsN, sortLocal) or two (decodeCSV).
func TestDecodeAllocatesPerChunk(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts differ under the race detector")
	}
	orderBy, err := parseOrderBy("o_totalprice DESC, o_orderkey")
	if err != nil {
		t.Fatal(err)
	}
	for _, rows := range []int{60, 6000} {
		cols, cells := ordersCells(rows)
		data := csvx.Encode(cols, cells)
		rel := FromStrings(cols, cells)
		for name, run := range map[string]func() error{
			"FromStringsN": func() error { FromStringsN(cols, cells, 2); return nil },
			"decodeCSV":    func() error { _, err := decodeCSV(data); return err },
			"sortLocal":    func() error { _, err := sortLocal(rel, orderBy); return err },
		} {
			total := testing.AllocsPerRun(10, func() {
				if err := run(); err != nil {
					t.Fatal(err)
				}
			})
			if limit := float64(25 + rows/50); total > limit {
				t.Errorf("%s over %d rows allocates %v times, want at most %v", name, rows, total, limit)
			}
		}
	}
}

// checkRowsDoNotAlias appends to every row of rel and expects the row
// after it untouched: rows are windows of shared arrays, cut [:n:n].
func checkRowsDoNotAlias(t *testing.T, rel *Relation) {
	t.Helper()
	for i := 0; i+1 < len(rel.Rows); i++ {
		next := append(Row{}, rel.Rows[i+1]...)
		_ = append(rel.Rows[i], value.Str("overflow"))
		if !reflect.DeepEqual(rel.Rows[i+1], next) {
			t.Fatalf("append to row %d rewrote row %d: %v, was %v", i, i+1, rel.Rows[i+1], next)
		}
	}
}

func TestDecodedRowsDoNotAlias(t *testing.T) {
	cols, cells := ordersCells(40)
	cells[7] = cells[7][:2] // ragged rows are windows too
	checkRowsDoNotAlias(t, FromStringsN(cols, cells, 3))
	rel, err := decodeCSV(csvx.Encode(cols, cells))
	if err != nil {
		t.Fatal(err)
	}
	checkRowsDoNotAlias(t, rel)
	if want := FromStrings(cols, cells); !reflect.DeepEqual(rel, want) {
		t.Errorf("decodeCSV and FromStrings disagree:\n got %v\nwant %v", rel.Rows, want.Rows)
	}
}

// TestSortLocalIsStable: rows with equal keys keep their input order, in
// both directions, as they did under sort.SliceStable.
func TestSortLocalIsStable(t *testing.T) {
	rel := &Relation{Cols: []string{"k", "seq"}}
	for i := 0; i < 500; i++ {
		rel.Rows = append(rel.Rows, Row{value.Int(int64(i * 7 % 5)), value.Int(int64(i))})
	}
	for _, order := range []string{"k", "k DESC"} {
		got, err := SortLocal(rel, order)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(got.Rows); i++ {
			a, b := got.Rows[i-1], got.Rows[i]
			if c := value.Compare(a[0], b[0]); (order == "k" && c > 0) || (order == "k DESC" && c < 0) || (c == 0 && a[1].AsInt() > b[1].AsInt()) {
				t.Fatalf("ORDER BY %s: row %v before %v", order, a, b)
			}
		}
	}
}
