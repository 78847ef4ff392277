package engine

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"pushdowndb/internal/csvx"
	"pushdowndb/internal/race"
	"pushdowndb/internal/s3api"
	"pushdowndb/internal/store"
	"pushdowndb/internal/value"
	"pushdowndb/internal/vec"
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
// one per row (FromStringsN, sortLocal) or two (decodeCSV) — and the typed
// decode of a grouped scan (vec.FromStrings) a few per column, none per
// cell, and no more than 12 bytes for a cell that is a number.
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
		rel := FromStringsN(cols, cells, 1)
		for name, run := range map[string]func() error{
			"FromStringsN": func() error { FromStringsN(cols, cells, 2); return nil },
			"FromStrings":  func() error { vec.FromStrings(cols, cells, 2); return nil },
			"decodeCSV":    func() error { _, err := decodeCSV(data, nil); return err },
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
	numCols, numbers := []string{"a", "b", "c", "d", "e"}, make([][]string, 6000)
	for i := range numbers {
		numbers[i] = []string{fmt.Sprint(i), fmt.Sprintf("%d.5", i%89), "1996-03-13", fmt.Sprint(-i), "0.04"}
	}
	perCell := float64(allocatedBytes(func() { vec.FromStrings(numCols, numbers, 2) })) / float64(len(numbers)*len(numCols))
	if perCell > 12 {
		t.Errorf("vec.FromStrings allocates %.1f bytes per numeric cell, want at most 12", perCell)
	}
}

// allocatedBytes is what the heap handed out while fn ran.
func allocatedBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestGroupedScanAllocatesPerColumn pins what the grouped scan is for: the
// compute side of a Q1-shaped statement over a 4-partition table — the
// responses come from the result cache, so storage's own work is not in the
// figure; parse, plan, typed decode, fold and finish are — allocates under
// 24 bytes per returned cell. Decoding the same responses to rows first cost
// about 50: 32 for the cell's value.Value and as much again re-laying it out.
func TestGroupedScanAllocatesPerColumn(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation sizes differ under the race detector")
	}
	const rows = 8000
	cells := make([][]string, rows)
	for i := range cells {
		cells[i] = []string{"ANR"[i%3 : i%3+1], "OF"[i%2 : i%2+1], fmt.Sprint(1 + i%50), fmt.Sprintf("%d.%02d", 900+i%9000, i%100),
			fmt.Sprintf("0.%02d", i%11), fmt.Sprintf("0.%02d", i%9), fmt.Sprintf("199%d-0%d-1%d", i%8, 1+i%9, i%10)}
	}
	st := store.New()
	cols := []string{"l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount", "l_tax", "l_shipdate"}
	if err := PartitionTable(context.Background(), st, testBucket, "lineitem", cols, cells, 4); err != nil {
		t.Fatal(err)
	}
	db, err := Open(testBucket, WithBackend("s3sim", s3api.NewInProc(st)), WithResultCache(testCacheBudget))
	if err != nil {
		t.Fatal(err)
	}
	const q1 = `SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty, SUM(l_extendedprice) AS sum_base_price,
		SUM(l_extendedprice * (1 - l_discount)) AS sum_disc_price, SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)) AS sum_charge,
		AVG(l_quantity) AS avg_qty, AVG(l_extendedprice) AS avg_price, AVG(l_discount) AS avg_disc, COUNT(*) AS count_order
		FROM lineitem WHERE l_shipdate <= '1998-09-01' GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus`
	var returned int64
	run := func() {
		rel, e, err := db.QueryContext(context.Background(), q1)
		if err != nil || len(rel.Rows) != 6 {
			t.Fatalf("q1: %v, %v", rel, err)
		}
		_, returned = e.Metrics.CacheTotals()
	}
	run() // fills the cache
	perCell := float64(allocatedBytes(run)) / float64(rows*6)
	if returned == 0 {
		t.Fatal("the measured run was not served from the result cache")
	}
	if perCell > 24 {
		t.Errorf("a grouped scan's compute side allocates %.1f bytes per returned cell, want at most 24", perCell)
	}
	t.Logf("%.1f bytes per returned cell", perCell)
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
	rel, err := decodeCSV(csvx.Encode(cols, cells), nil)
	if err != nil {
		t.Fatal(err)
	}
	checkRowsDoNotAlias(t, rel)
	if want := FromStringsN(cols, cells, 1); !reflect.DeepEqual(rel, want) {
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
