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

// relOf is rows typed as a select response's body decodes (decodeResponse).
func relOf(cols []string, rows [][]string) *Relation {
	rel, err := decodeResponse(context.Background(), &decoder{}, responseOf(cols, csvx.Encode(nil, rows), len(rows)))
	if err != nil {
		panic(err)
	}
	return rel
}

// responseOf is a select response naming cols whose stats claim rows rows
// of body.
func responseOf(cols []string, body []byte, rows int) *selectengine.Result {
	return &selectengine.Result{Columns: cols, Body: body, Stats: selectengine.Stats{RowsReturned: int64(rows)}}
}

// decodeParts decodes parts, opened, one after another as one scan's
// partitions through the one decoder, with d's consumers (none in a zero
// decoder), and finishes: the first part's error, else the finish's.
func decodeParts(d *decoder, parts ...part) (*Relation, error) {
	d.parts = parts
	var err error
	for i := range d.parts {
		if err == nil {
			err = d.decode(context.Background(), i)
		}
	}
	return d.finish(err)
}

// loadObject is data decoded as a load decodes a partition of it, on
// workers: opened, then every row typed.
func loadObject(data []byte, cols []string, workers int) (*Relation, error) {
	var p part
	if err := p.open(data, cols, nil); err != nil {
		return nil, err
	}
	return decodeParts(&decoder{workers: workers}, p)
}

// recordsOf is a select response's rows, its body read by a CSV scanner,
// each row's cells as text, once Check has found it the rows of
// len(Columns) cells its stats claim; a body that is not fails t.
func recordsOf(t testing.TB, res *selectengine.Result) [][]string {
	t.Helper()
	if err := res.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
	rows := [][]string{}
	for sc := csvx.NewScanner(res.Body); sc.Scan(); {
		rows = append(rows, csvx.CloneRow(sc.Fields()))
	}
	return rows
}

// TestDecodeAllocatesPerChunk pins the per-response rule on the compute
// side: decoding a select response's body to rows, a GET's CSV, and sorting
// cost a fixed number of allocations plus one per chunk as chunks double —
// not one per row (SortLocal) or two (decodeCSV) — vec.FromStrings a few per
// column, none per cell, and no more than 12 bytes for a cell that is a
// number; a grouped scan's fold of a response into its block a few per
// body, none per row; and a small reader's decode of a response a few per
// response, none per row.
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
		d, res := &decoder{fold: f, header: f.cols}, responseOf(cols, body, rows)
		return func() error { _, err := decodeResponse(context.Background(), d, res); return err }
	}
	for _, rows := range []int{60, 6000} {
		cols, cells := ordersCells(rows)
		data, body := csvx.Encode(cols, cells), csvx.Encode(nil, cells)
		rel, res := relOf(cols, cells), responseOf(cols, body, rows)
		for name, run := range map[string]func() error{
			"response":    func() error { _, err := decodeResponse(context.Background(), &decoder{}, res); return err },
			"FromStrings": func() error { vec.FromStrings(cols, cells, 2); return nil },
			"decodeCSV":   func() error { _, err := loadObject(data, nil, 1); return err },
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
		// The small readers' decode (the planner's sample, a probe's or an
		// aggregate select's responses): a fresh decoder, its part, the
		// cells, the relation and its rows and the scanner's own few, per
		// response, not per row.
		if total := testing.AllocsPerRun(10, func() {
			if _, err := decodeResponse(context.Background(), &decoder{}, res); err != nil {
				t.Fatal(err)
			}
		}); total > 10 {
			t.Errorf("a small reader's decode of a %d-row response allocates %v times, want at most 10 whatever its rows", rows, total)
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
	body, err := decodeResponse(context.Background(), &decoder{}, responseOf(cols, csvx.Encode(nil, cells), len(cells)))
	if err != nil {
		t.Fatal(err)
	}
	checkRowsDoNotAlias(t, body)
	rel, err := loadObject(csvx.Encode(cols, cells), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	checkRowsDoNotAlias(t, rel)
	if !reflect.DeepEqual(rel, body) {
		t.Errorf("a GET object and a response decode differently:\n got %v\nwant %v", rel.Rows, body.Rows)
	}
}

// decodeSource decodes parts, rows under cols, through d as one scan whose
// source is each partition as a GET object (its header line first), as a
// select response, as one lent by storage (selectengine.Run, decoded in
// its sink and poisoned once the sink returns), or as an index fetch's
// fragments: its relation, or with a fold the fold's groups.
func decodeSource(t *testing.T, d *decoder, source string, cols []string, parts [][][]string) (*Relation, error) {
	t.Helper()
	d.e, d.lends = openTestDB(t, store.New()).NewExecContext(context.Background()), source == "lent"
	rel, err := d.finish(d.run(make([]string, len(parts)), func(ctx context.Context, i int) error {
		p := &d.parts[i]
		switch source {
		case "object":
			return p.open(csvx.Encode(cols, parts[i]), nil, nil)
		case "response":
			p.response(responseOf(cols, csvx.Encode(nil, parts[i]), len(parts[i])))
		case "lent":
			req := selectengine.Request{SQL: "SELECT * FROM S3Object", HasHeader: true}
			return selectengine.Run(csvx.Encode(cols, parts[i]), req, func(res *selectengine.Result) error {
				d.parts[i].response(res)
				err := d.decode(ctx, i)
				poison(res.Body)
				return err
			})
		default:
			p.openRows(cols, csvx.Encode(nil, parts[i]))
		}
		return nil
	}))
	if err == nil && d.fold != nil {
		rel, err = d.fold.finish()
	}
	return rel, err
}

// TestEverySourceDecodesAlike: the one decoder decodes a GET object, a
// select response and an index fetch's fragments of the same rows alike
// through every consumer — none, a Where, a fold into a grouping, a probe
// of a build side — to the same rows in the same order, typed alike, or the
// same error: over four partitions, one of them empty, with NULL, text,
// quoted, date and ragged cells. So does a response storage lends, whose
// body is poisoned once decoded, through every consumer a response meets
// (a Where is a load's): nothing the decode keeps views it.
func TestEverySourceDecodesAlike(t *testing.T) {
	cols := []string{"k", "n", "s", "d"}
	parts := [][][]string{
		{{"1", "10", "a", "1996-03-13"}, {"2", "", "b,c", "1996-03-14"}, {"3", "2.5"}},
		{},
		{{"1", "-4", "", "1997-01-01"}, {"", "7", "x\"y", "1996-03-13"}},
		{{"2", "x", "z", "1998-12-01"}, {"4", "5", "w", ""}},
	}
	expr := func(s string) sqlparse.Expr {
		e, err := sqlparse.ParseExpr(s)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	build := cellsRel([]string{"bk", "tag"}, [][]string{{"1", "one"}, {"2", "two"}, {"1", "uno"}, {"", "null"}})
	grouping := func(sql string) func(source string) *decoder {
		sel := selectOf(t, sql)
		return func(source string) *decoder {
			if source != "response" && source != "lent" { // a load's: bound to the first kept header
				return &decoder{fold: &groupFold{keys: sel.GroupBy, items: sel.Items}, serial: true}
			}
			f, err := newGroupFold(scanSelect(columnItems(cols), nil), sel.GroupBy, sel.Items)
			if err != nil {
				t.Fatal(err)
			}
			return &decoder{fold: f, header: f.cols} // a pushed scan's
		}
	}
	probing := func(key string) func(string) *decoder {
		return func(string) *decoder {
			return &decoder{build: func() *Relation { return build }, buildKey: "bk", probeKey: key, serial: true}
		}
	}
	for _, c := range []struct {
		name    string
		decoder func(source string) *decoder
		fails   bool
	}{
		{"plain", func(string) *decoder { return &decoder{} }, false},
		{"where", func(string) *decoder { return &decoder{where: expr("k >= 2 OR s IS NULL"), serial: true} }, false},
		{"where failing", func(string) *decoder { return &decoder{where: expr("CAST(n AS INT) > 0"), serial: true} }, true},
		{"where unbound", func(string) *decoder { return &decoder{where: expr("nosuch > 0"), serial: true} }, true},
		{"fold", grouping("SELECT k, COUNT(*) AS c, MIN(s) AS lo, MAX(d) AS hi FROM t GROUP BY k"), false},
		{"fold failing", grouping("SELECT k, SUM(n) AS sn FROM t GROUP BY k"), true},
		{"probe", probing("k"), false},
		{"probe unknown key", probing("nosuch"), true},
	} {
		var want *Relation
		var wantErr error
		for i, source := range []string{"object", "response", "fragments", "lent"} {
			d := c.decoder(source)
			if source == "lent" && d.where != nil {
				continue
			}
			d.serial = d.serial && source != "lent" // a response's parts decode at once
			got, err := decodeSource(t, d, source, cols, parts)
			if (err != nil) != c.fails {
				t.Fatalf("%s over a %s: %v, %v; want an error: %v", c.name, source, got, err, c.fails)
			}
			if i == 0 {
				want, wantErr = got, err
				continue
			}
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Errorf("%s: a %s fails with %v, a GET object with %v", c.name, source, err, wantErr)
			}
			if err == nil {
				identicalRel(t, c.name+" over a "+source, want, got)
			}
		}
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

// joinOperatorSets run the join over one span and over two.
var joinOperatorSets = map[string]Operators{"one span": {}, "two spans": {Workers: 2}}

// TestHashJoinAllocatesPerJoin pins the join's output to allocations per
// join, not per row, over one span and two: 16x the output rows cost only
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

// TestHashJoinKeysAllocateNoValues pins the join's key reads: both sides'
// keys are read where they are, in the rows' cells. A join whose 16k probe
// keys match nothing allocates under 16 bytes a probe row; building a key
// vector from the rows cost 8 bytes a row, and copying the keys into a
// []value.Value first 32 bytes more.
func TestHashJoinKeysAllocateNoValues(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation sizes differ under the race detector")
	}
	build, probe := joinSides(16000)
	for _, row := range probe.Rows {
		row[0] = value.Int(row[0].AsInt() + 1000) // no build key
	}
	o := joinOperatorSets["two spans"]
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

// intKeyRel is a one-column relation of n integer keys cycling through
// distinct values.
func intKeyRel(n, distinct int) *Relation {
	rel := &Relation{Cols: []string{"k"}, Rows: make([]Row, n)}
	for i := range rel.Rows {
		rel.Rows[i] = Row{value.Int(int64(i % distinct))}
	}
	return rel
}

// TestHashJoinAllocatesPerSide pins the join build to allocations per side,
// not per key: a 16x larger build side, every key distinct, against the same
// probe costs only the head map's own extra tables more (about one
// allocation per 500 keys), over one span and two. A list of rows per key
// cost an allocation per key.
func TestHashJoinAllocatesPerSide(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts differ under the race detector")
	}
	probe := intKeyRel(4096, 1000)
	for name, o := range joinOperatorSets {
		allocs := func(keys int) float64 {
			build := intKeyRel(keys, keys)
			return testing.AllocsPerRun(5, func() {
				if out, err := o.HashJoin(build, probe, "k", "k"); err != nil || len(out.Rows) != len(probe.Rows) {
					t.Fatalf("%s, %d keys: %d pairs (%v), want %d", name, keys, len(out.Rows), err, len(probe.Rows))
				}
			})
		}
		if small, large := allocs(1000), allocs(16000); large-small > 16000/128 {
			t.Errorf("%s: HashJoin allocates %v times over 1k build keys and %v over 16k, want a small constant apart", name, small, large)
		}
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

// TestFilterAllocatesPerKeptRow pins the filter to its output: over n rows
// it allocates the n-byte keep mask, the kept rows' 24-byte slice headers
// and a constant (each span's bound row program, and the allocator's
// rounding of the two arrays), at one span and at four. Building vectors
// from the rows' cells first cost about 20 bytes an input row more.
func TestFilterAllocatesPerKeptRow(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation sizes differ under the race detector")
	}
	const n = 20000
	rel := &Relation{Cols: []string{"a", "b", "c", "d"}}
	for i := range n {
		rel.Rows = append(rel.Rows, Row{value.Int(int64(i % 50)), value.Str("x"), value.Float(float64(i) / 2), value.Date(int64(8000 + i%2000))})
	}
	pred := selectOf(t, "SELECT * FROM t WHERE d >= '1994-01-01' AND d < '1995-01-01' AND a < 24").Where
	for _, o := range []Operators{{}, {Workers: 4}} {
		var kept int
		got := allocatedBytes(func() {
			out, err := o.Filter(rel, pred)
			if err != nil {
				t.Fatal(err)
			}
			kept = len(out.Rows)
		})
		if want := uint64(n + 24*kept + 16<<10); kept == 0 || got > want {
			t.Errorf("Workers=%d: filtering %d rows to %d allocates %d bytes, want at most %d", o.Workers, n, kept, got, want)
		}
	}
}
