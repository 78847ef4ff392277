package engine

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"pushdowndb/internal/bloom"
	"pushdowndb/internal/csvx"
	"pushdowndb/internal/race"
	"pushdowndb/internal/s3api"
	"pushdowndb/internal/selectengine"
	"pushdowndb/internal/sqlparse"
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

// relOf is rows typed as a select response's body decodes (decodeRows).
func relOf(cols []string, rows [][]string) *Relation {
	rel, err := cut(decodeRows(cols, csvx.Encode(nil, rows), len(rows)))
	if err != nil {
		panic(err)
	}
	return rel
}

// cut is the relation of one decoded partition, cut as a scan cuts its
// partitions' rows (cutRows).
func cut(p part, err error) (*Relation, error) {
	if err != nil {
		return nil, err
	}
	return cutRows([]part{p})
}

// recordsOf is a select response's rows (Result.Records); a body that does
// not decode to them fails t.
func recordsOf(t testing.TB, res *selectengine.Result) [][]string {
	t.Helper()
	rows, err := res.Records()
	if err != nil {
		t.Fatalf("Records: %v", err)
	}
	return rows
}

// TestDecodeAllocatesPerChunk pins the per-response rule on the compute
// side: decoding a select response's body to rows, a GET's CSV, and sorting
// cost a fixed number of allocations plus one per chunk as chunks double —
// not one per row (SortLocal) or two (decodeCSV) — vec.FromStrings a few per
// column, none per cell, and no more than 12 bytes for a cell that is a
// number; a grouped scan's fold of a body (groupFold.body) a few per body,
// none per row.
func TestDecodeAllocatesPerChunk(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts differ under the race detector")
	}
	orderBy := selectOf(t, "SELECT * FROM t ORDER BY o_totalprice DESC, o_orderkey").OrderBy
	// A fold binds its block to a body's columns once, before the scan; what
	// each body costs after that is the pin.
	count := selectOf(t, "SELECT COUNT(*) AS n FROM t")
	fold := func(cols []string, body []byte, rows int) func() error {
		f, err := newGroupFold(scanSelect(columnItems(cols), nil), nil, count.Items)
		if err != nil {
			t.Fatal(err)
		}
		res := &selectengine.Result{Columns: cols, Body: body, Stats: selectengine.Stats{RowsReturned: int64(rows)}}
		return func() error { return f.body(res) }
	}
	for _, rows := range []int{60, 6000} {
		cols, cells := ordersCells(rows)
		data, body := csvx.Encode(cols, cells), csvx.Encode(nil, cells)
		rel := relOf(cols, cells)
		for name, run := range map[string]func() error{
			"decodeRows":  func() error { _, err := cut(decodeRows(cols, body, rows)); return err },
			"FromStrings": func() error { vec.FromStrings(cols, cells, 2); return nil },
			"decodeCSV":   func() error { _, err := cut(decodeCSV(data, nil)); return err },
			"SortLocal":   func() error { _, err := SortLocal(rel, orderBy); return err },
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
		folder := fold(cols, body, rows)
		if total := testing.AllocsPerRun(10, func() {
			if err := folder(); err != nil {
				t.Fatal(err)
			}
		}); total > 8 {
			t.Errorf("folding a %d-row body allocates %v times, want at most 8 whatever its rows", rows, total)
		}
	}
	numCols, numbers := []string{"a", "b", "c", "d", "e"}, make([][]string, 6000)
	for i := range numbers {
		numbers[i] = []string{fmt.Sprint(i), fmt.Sprintf("%d.5", i%89), "1996-03-13", fmt.Sprint(-i), "0.04"}
	}
	if perCell := float64(allocatedBytes(func() { vec.FromStrings(numCols, numbers, 2) })) / float64(len(numbers)*len(numCols)); perCell > 12 {
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

// TestGroupedScanAllocatesPerChunk pins what the grouped scan is for: the
// compute side of a Q1-shaped statement over a 4-partition table — the
// responses come from the result cache, so storage's own work is not in the
// figure; parse, plan, the chunked decode and fold of the bodies, and finish
// are — allocates no more over 64k returned rows than over 8k, within a
// fixed number of bytes and mallocs: each body is decoded a chunk at a time
// into vectors every chunk reuses, never into vectors as long as the
// response.
func TestGroupedScanAllocatesPerChunk(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation sizes differ under the race detector")
	}
	const q1 = `SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty, SUM(l_extendedprice) AS sum_base_price,
		SUM(l_extendedprice * (1 - l_discount)) AS sum_disc_price, SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)) AS sum_charge,
		AVG(l_quantity) AS avg_qty, AVG(l_extendedprice) AS avg_price, AVG(l_discount) AS avg_disc, COUNT(*) AS count_order
		FROM lineitem WHERE l_shipdate <= '1998-09-01' GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus`
	measure := func(rows int) (bytes, mallocs float64) {
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
		var returned int64
		run := func() {
			rel, e, err := db.QueryContext(context.Background(), q1)
			if err != nil || len(rel.Rows) != 6 {
				t.Fatalf("q1: %v, %v", rel, err)
			}
			_, returned = e.Metrics.CacheTotals()
		}
		run() // fills the cache
		bytes = float64(allocatedBytes(run))
		if returned == 0 {
			t.Fatal("the measured run was not served from the result cache")
		}
		return bytes, testing.AllocsPerRun(3, run)
	}
	smallB, smallN := measure(8 << 10)
	largeB, largeN := measure(64 << 10)
	t.Logf("8k rows: %.0f bytes, %.0f mallocs; 64k rows: %.0f bytes, %.0f mallocs", smallB, smallN, largeB, largeN)
	if largeB-smallB > 64<<10 || largeN-smallN > 64 {
		t.Errorf("a grouped scan allocates %.0f bytes in %.0f mallocs over 8k returned rows and %.0f in %.0f over 64k; want at most 64 KiB and 64 mallocs more",
			smallB, smallN, largeB, largeN)
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
	body, err := cut(decodeRows(cols, csvx.Encode(nil, cells), len(cells)))
	if err != nil {
		t.Fatal(err)
	}
	checkRowsDoNotAlias(t, body)
	rel, err := cut(decodeCSV(csvx.Encode(cols, cells), nil))
	if err != nil {
		t.Fatal(err)
	}
	checkRowsDoNotAlias(t, rel)
	if !reflect.DeepEqual(rel, body) {
		t.Errorf("decodeCSV and decodeRows disagree:\n got %v\nwant %v", rel.Rows, body.Rows)
	}
}

// joinSides is a 100-row build side keyed 0..99 and a probe side of n
// rows cycling through those keys, so the join has n output rows.
func joinSides(n int) (build, probe *Relation) {
	build, probe = &Relation{Cols: []string{"k", "name"}}, &Relation{Cols: []string{"fk", "qty"}}
	for i := 0; i < 100; i++ {
		build.Rows = append(build.Rows, Row{value.Int(int64(i)), value.Str(fmt.Sprint("name", i))})
	}
	for i := 0; i < n; i++ {
		probe.Rows = append(probe.Rows, Row{value.Int(int64(i % 100)), value.Float(float64(i) / 4)})
	}
	return build, probe
}

// joinOperatorSets are the reference and the kernels at two workers.
var joinOperatorSets = map[string]Operators{"reference": {}, "vectorized": {Vectorized: true, Workers: 2}}

// TestHashJoinAllocatesPerJoin pins the join's output to allocations per
// join, not per row, on both operator sets: 16x the output rows cost only
// the pair lists' few extra doublings.
func TestHashJoinAllocatesPerJoin(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts differ under the race detector")
	}
	for name, o := range joinOperatorSets {
		allocs := func(n int) float64 {
			build, probe := joinSides(n)
			return testing.AllocsPerRun(5, func() {
				if out, err := o.HashJoin(build, probe, "k", "fk"); err != nil || len(out.Rows) != n {
					t.Fatalf("%s: %d rows (%v), want %d", name, len(out.Rows), err, n)
				}
			})
		}
		if small, large := allocs(1000), allocs(16000); large-small > 32 {
			t.Errorf("%s: HashJoin allocates %v times for 1k output rows and %v for 16k, want a small constant apart", name, small, large)
		}
	}
}

// TestHashJoinKeysAllocateNoValues pins the kernels' key extraction: each
// side's key column becomes its vector straight from the rows. A join whose
// 16k probe keys match nothing allocates under 16 bytes a probe row, about
// the key vector's 8-byte payload; copying the keys into a []value.Value
// first cost 32 bytes a row more.
func TestHashJoinKeysAllocateNoValues(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation sizes differ under the race detector")
	}
	build, probe := joinSides(16000)
	for _, row := range probe.Rows {
		row[0] = value.Int(row[0].AsInt() + 1000) // no build key
	}
	o := joinOperatorSets["vectorized"]
	perRow := float64(allocatedBytes(func() {
		if out, err := o.HashJoin(build, probe, "k", "fk"); err != nil {
			t.Fatal(err)
		} else if len(out.Rows) != 0 {
			t.Fatalf("%d rows, want none", len(out.Rows))
		}
	})) / float64(len(probe.Rows))
	if perRow > 16 {
		t.Errorf("a join matching none of its probe rows allocates %.1f bytes a probe row, want at most 16", perRow)
	}
}

// TestJoinedRowsDoNotAlias: a joined row is a window of the join's one
// array with no spare capacity, so an append to it never reaches the next.
func TestJoinedRowsDoNotAlias(t *testing.T) {
	for name, o := range joinOperatorSets {
		build, probe := joinSides(300)
		out, err := o.HashJoin(build, probe, "k", "fk")
		if err != nil {
			t.Fatal(err)
		}
		for k, row := range out.Rows {
			if len(row) != 4 || cap(row) != len(row) {
				t.Fatalf("%s: row %d has len %d cap %d, want 4 and 4", name, k, len(row), cap(row))
			}
		}
		checkRowsDoNotAlias(t, out)
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
		got, err := SortLocal(rel, selectOf(t, "SELECT * FROM t ORDER BY "+order).OrderBy)
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

// TestBloomProbeRequestPrintsOnce pins what printing a Bloom probe's request
// costs: one buffer at the printed length, not a copy per nesting level.
// The request is a Listing-1 probe of about 48 KB (the size serve_zipf's Q14
// join ships) behind a pushed filter and projection, and printing it — the
// one text the cache keys, the size limit measures and the wire carries —
// allocates less than three times its length.
func TestBloomProbeRequestPrintsOnce(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts and sizes differ under the race detector")
	}
	rng := rand.New(rand.NewSource(1))
	f := bloom.New(700, 0.01, rng)
	for k := int64(0); k < 700; k++ {
		f.Add(k * 3)
	}
	filter, err := sqlparse.ParseExpr("l_shipdate >= '1995-09-01' AND l_shipdate < '1995-10-01'")
	if err != nil {
		t.Fatal(err)
	}
	stmt := scanSelect(columnItems([]string{"l_partkey", "l_extendedprice", "l_discount"}),
		&sqlparse.Binary{Op: sqlparse.OpAnd, L: filter, R: f.SQLPredicate(&sqlparse.Column{Name: "l_partkey"})})
	size := len(selectengine.NewRequest(stmt, true, selectengine.Capabilities{}).SQL)
	if size < 40<<10 || size > 56<<10 {
		t.Fatalf("the probe prints %d bytes, want about 48 KB", size)
	}
	const runs = 20
	grew := allocatedBytes(func() {
		for range runs {
			_ = selectengine.NewRequest(stmt, true, selectengine.Capabilities{})
		}
	}) / runs
	if grew >= 3*uint64(size) {
		t.Errorf("printing a %d-byte probe request allocates %d bytes (%.1fx), want under 3x", size, grew, float64(grew)/float64(size))
	}
}

// TestDeclinedFilterBuildsNoVectors: a predicate the filter kernel does not
// compile (arithmetic, here) runs the row path on the vectorized set too,
// and is declined by its shape before any vector is built: over 1,000 rows
// it allocates no more there than on the reference.
func TestDeclinedFilterBuildsNoVectors(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts differ under the race detector")
	}
	rel := &Relation{Cols: []string{"a", "b", "c"}}
	for i := range 1000 {
		rel.Rows = append(rel.Rows, Row{value.Int(int64(i)), value.Str("x"), value.Float(float64(i) / 2)})
	}
	pred := selectOf(t, "SELECT * FROM t WHERE a + 1 < 500").Where
	allocs := func(o Operators) float64 {
		return testing.AllocsPerRun(10, func() {
			out, err := o.Filter(rel, pred)
			if err != nil || len(out.Rows) != 499 {
				t.Fatalf("filter: %v, %v", out, err)
			}
		})
	}
	if vectorized, reference := allocs(Operators{Vectorized: true, Workers: 1}), allocs(Operators{}); vectorized > reference {
		t.Errorf("a declined filter allocates %v times vectorized, %v on the reference", vectorized, reference)
	}
}
