package selectengine

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"pushdowndb/internal/colformat"
	"pushdowndb/internal/csvx"
	"pushdowndb/internal/race"
	"pushdowndb/internal/value"
)

// Header-less objects (FileHeaderInfo=NONE) are addressed by position
// alone; both tests failed while positional names were registered from the
// header's width, which is zero exactly when they are needed.
func TestHeaderlessPositionalColumns(t *testing.T) {
	data := []byte("1,ann,10\n2,bob,20\n3,cy,30\n")
	res, err := Execute(data, Request{SQL: "SELECT _2 FROM S3Object WHERE _1 = 2"})
	if err != nil {
		t.Fatal(err)
	}
	if want := [][]string{{"bob"}}; !reflect.DeepEqual(rowsOf(t, res), want) {
		t.Errorf("rows = %q, want %q", rowsOf(t, res), want)
	}
	if res.Stats.RowsScanned != 3 || res.Stats.CellsDecoded != 9 {
		t.Errorf("scanned %d rows, %d cells; the first line of a header-less object is data",
			res.Stats.RowsScanned, res.Stats.CellsDecoded)
	}
}

func TestHeaderlessStar(t *testing.T) {
	data := []byte("1,ann,10\n2,bob\n")
	res, err := Execute(data, Request{SQL: "SELECT * FROM S3Object"})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"_1", "_2", "_3"}; !reflect.DeepEqual(res.Columns, want) {
		t.Errorf("columns = %q, want %q", res.Columns, want)
	}
	// The first row's width names the columns; a shorter row reads NULL.
	if want := [][]string{{"1", "ann", "10"}, {"2", "bob", ""}}; !reflect.DeepEqual(rowsOf(t, res), want) {
		t.Errorf("rows = %q, want %q", rowsOf(t, res), want)
	}
}

// TestResultOwnsItsBytes scans a private buffer, overwrites it, and expects
// the Result's columns and decoded body — projected cells, the captured
// header, group keys, MIN/MAX — to be unchanged: a Result is cached and
// shared between requests long after the object it came from may be gone.
func TestResultOwnsItsBytes(t *testing.T) {
	rows := [][]string{
		{"1", "ann", `say "hi"`, "x"},
		{"2", "bob", "a,b", "y"},
		{"3", "cy", "plain", "x"},
	}
	caps := Capabilities{AllowGroupBy: true}
	for _, sql := range []string{
		"SELECT * FROM S3Object",
		"SELECT name, note, k FROM S3Object WHERE k >= 2",
		"SELECT MIN(name), MAX(note), COUNT(*) FROM S3Object",
		"SELECT g, MIN(note), MAX(name) FROM S3Object GROUP BY g",
	} {
		want, err := Execute(csvx.Encode([]string{"k", "name", "note", "g"}, rows), Request{SQL: sql, HasHeader: true, Capabilities: caps})
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		data := csvx.Encode([]string{"k", "name", "note", "g"}, rows)
		got, err := Execute(data, Request{SQL: sql, HasHeader: true, Capabilities: caps})
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		for i := range data {
			data[i] = 'X'
		}
		if g, w := rowsOf(t, got), rowsOf(t, want); !reflect.DeepEqual(got.Columns, want.Columns) || !reflect.DeepEqual(g, w) {
			t.Errorf("%s: result changed when the scanned buffer was overwritten:\n got %q %q\nwant %q %q",
				sql, got.Columns, g, want.Columns, w)
		}
	}
}

// lineitemCSV is a rows-row object shaped like the benchmark's scans.
func lineitemCSV(rows int) []byte {
	cells := make([][]string, rows)
	for i := range cells {
		cells[i] = []string{strconv.Itoa(4001 + i), "21168.23", "0.04", "1996-03-13", "TRUCK"}
	}
	return csvx.Encode([]string{"l_orderkey", "l_extendedprice", "l_discount", "l_shipdate", "l_shipmode"}, cells)
}

const projectSQL = "SELECT l_orderkey, l_extendedprice * (1 - l_discount), l_shipdate, l_shipmode FROM S3Object"

// TestResponseAllocatesPerChunk pins what a response costs: parsing and
// set-up, then one allocation for the body — not one per row, let alone per
// cell — so a hundredfold response costs a handful more.
func TestResponseAllocatesPerChunk(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts differ under the race detector")
	}
	var small float64
	for _, rows := range []int{60, 6000} {
		data := lineitemCSV(rows)
		var res *Result
		total := testing.AllocsPerRun(10, func() {
			var err error
			if res, err = Execute(data, Request{SQL: projectSQL, HasHeader: true}); err != nil {
				t.Fatal(err)
			}
		})
		if rows == 60 {
			small = total
		}
		if limit := float64(110); total > limit || total > small+8 {
			t.Errorf("a %d-row response allocates %v times, want at most %v and %v more than 60 rows'", rows, total, limit, 8)
		}
		if got, want := rowsOf(t, res), []string{"4001", "20321.500799999998", "1996-03-13", "TRUCK"}; len(got) != rows || !reflect.DeepEqual(got[0], want) {
			t.Errorf("%d rows, first %q; want %d, first %q", len(got), got[0], rows, want)
		}
	}
}

// TestResponseAllocatesOnce pins what a warm scan allocates for a response's
// bytes: the rows render into a pooled buffer and are copied once into a
// body of their exact length, so a 15k-row response costs its body plus a
// fixed allowance for parsing and set-up. A body that doubled when full
// allocated 3 to 4 times its final length.
func TestResponseAllocatesOnce(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation sizes differ under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // keep the pooled buffer on its P
	const runs, allowance = 10, 32 << 10
	data := lineitemCSV(15000)
	var res *Result
	run := func() {
		var err error
		if res, err = Execute(data, Request{SQL: projectSQL, HasHeader: true}); err != nil {
			t.Fatal(err)
		}
	}
	run() // warms the pool
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	got, body := (after.TotalAlloc-before.TotalAlloc)/runs, uint64(len(res.Body))
	if limit := body*5/4 + allowance; got > limit {
		t.Errorf("a %d-row response allocates %d bytes for a %d-byte body, want at most %d", res.Stats.RowsReturned, got, body, limit)
	}
}

// TestLentResponseAllocatesNoBody: a warm Run lends its sink the buffer the
// rows were rendered into, so a sink that reads a 15k-row response where it
// lies costs the scan's parsing and set-up, and not a byte of the body.
func TestLentResponseAllocatesNoBody(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation sizes differ under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // keep the pooled buffer on its P
	const runs, allowance = 10, 32 << 10
	data := lineitemCSV(15000)
	var body, lines int
	run := func() {
		err := Run(data, Request{SQL: projectSQL, HasHeader: true}, func(res *Result) error {
			body, lines = len(res.Body), bytes.Count(res.Body, []byte{'\n'})
			return nil
		})
		if err != nil || lines != 15000 {
			t.Fatalf("%v: a sink read %d lines, want 15000", err, lines)
		}
	}
	run() // warms the pool
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / runs; got > allowance {
		t.Errorf("a warm Run lending a %d-byte body allocates %d bytes, want at most %d", body, got, allowance)
	}
}

// TestBodyIsExactSize: a response's body has no spare capacity, whatever
// the object's format and the statement's shape, so what keeps a response
// (the result cache, which charges len(Body)) keeps no more than that.
func TestBodyIsExactSize(t *testing.T) {
	cells := make([][]value.Value, 3000)
	for i := range cells {
		cells[i] = []value.Value{value.Int(int64(i)), value.Int(int64(i % 7)), value.Str(fmt.Sprintf("note %d", i))}
	}
	schema := colformat.Schema{{Name: "k", Kind: value.KindInt}, {Name: "g", Kind: value.KindInt}, {Name: "s", Kind: value.KindString}}
	columnar, err := colformat.Encode(schema, cells, 500, true)
	if err != nil {
		t.Fatal(err)
	}
	text := make([][]string, len(cells))
	for i, row := range cells {
		text[i] = []string{row[0].String(), row[1].String(), row[2].String()}
	}
	objects := map[string][]byte{"csv": csvx.Encode([]string{"k", "g", "s"}, text), "columnar": columnar}
	for format, data := range objects {
		for _, sql := range []string{
			"SELECT k, s FROM S3Object WHERE g <> 3",
			"SELECT g, SUM(k), COUNT(*) FROM S3Object GROUP BY g",
			"SELECT * FROM S3Object LIMIT 37",
			"SELECT k FROM S3Object WHERE k < 0",
		} {
			res, err := Execute(data, Request{SQL: sql, HasHeader: format == "csv", Capabilities: Capabilities{AllowGroupBy: true}})
			if err != nil {
				t.Fatalf("%s: %s: %v", format, sql, err)
			}
			if cap(res.Body) != len(res.Body) {
				t.Errorf("%s: %s: a %d-byte body has capacity %d", format, sql, len(res.Body), cap(res.Body))
			}
		}
	}
}

// TestConcurrentScansShareNoBody: scans that run at once, each rendering
// in a buffer from the pool, answer what they answer alone, and a body
// stays as it was while later scans reuse the buffers.
func TestConcurrentScansShareNoBody(t *testing.T) {
	data := lineitemCSV(2000)
	sqls := []string{projectSQL, "SELECT l_shipmode, COUNT(*) FROM S3Object GROUP BY l_shipmode",
		"SELECT l_orderkey FROM S3Object WHERE l_orderkey < 4100", "SELECT * FROM S3Object LIMIT 3"}
	want := make([]string, len(sqls))
	for i, sql := range sqls {
		res, err := Execute(data, Request{SQL: sql, HasHeader: true, Capabilities: Capabilities{AllowGroupBy: true}})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = string(res.Body)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var kept []*Result
			for r := 0; r < 20; r++ {
				i := (g + r) % len(sqls)
				res, err := Execute(data, Request{SQL: sqls[i], HasHeader: true, Capabilities: Capabilities{AllowGroupBy: true}})
				if err != nil {
					t.Error(err)
					return
				}
				kept = append(kept, res)
			}
			for r, res := range kept {
				if i := (g + r) % len(sqls); string(res.Body) != want[i] {
					t.Errorf("%s: a %d-byte body changed or differs from the solo scan's %d bytes", sqls[i], len(res.Body), len(want[i]))
				}
			}
		}()
	}
	wg.Wait()
}

// TestColumnarScanAllocatesPerScan pins that a columnar scan allocates per
// scan, not per row group: each column decodes into the vector the previous
// group's did, and no chunk inflates into a buffer of its own. So an object
// of 16 row groups costs what one of its groups does, plus only what the
// other 15 own: their string chunks' text, and under 3 KB a group for their
// footer entries and flate's Huffman tables (1.8 KB measured). Decoding
// each group into fresh vectors cost its four payloads and inflate buffers
// again, 20 KB a group. Nor does a warm scan make a payload array: it
// decodes into the vectors the scan before it left in the pooled render, so
// a one-group scan allocates its string text and under 4 KB besides, where
// its four payload arrays alone are 10 KB (16 KB measured with fresh
// vectors, 5 KB pooled).
func TestColumnarScanAllocatesPerScan(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation sizes differ under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // keep the pooled chunk reader on its P
	const groupRows, runs = 250, 10
	schema := colformat.Schema{{Name: "k", Kind: value.KindInt}, {Name: "f", Kind: value.KindFloat},
		{Name: "s", Kind: value.KindString}, {Name: "d", Kind: value.KindDate}}
	rows := make([][]value.Value, 16*groupRows)
	for i := range rows {
		rows[i] = []value.Value{value.Int(int64(i)), value.Float(float64(i) / 8), value.Str(fmt.Sprintf("row %d", i)), value.Date(int64(9000 + i))}
	}
	// Every column is read and no row group can be pruned, or returned from.
	const sql = "SELECT * FROM S3Object WHERE s IS NULL"
	scan := func(rows [][]value.Value) (allocated, text, first uint64) {
		data, err := colformat.Encode(schema, rows, groupRows, true)
		if err != nil {
			t.Fatal(err)
		}
		r, err := colformat.Open(data)
		if err != nil {
			t.Fatal(err)
		}
		for g := 1; g < r.NumRowGroups(); g++ {
			text += uint64(r.ChunkRawLen(g, 2))
		}
		first = uint64(r.ChunkRawLen(0, 2))
		run := func() {
			res, err := Execute(data, Request{SQL: sql})
			if err != nil || res.Stats.RowsScanned != int64(len(rows)) || res.Stats.RowsReturned != 0 {
				t.Fatalf("%v, %+v: want all %d rows scanned and none returned", err, res.Stats, len(rows))
			}
		}
		run()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs, text, first
	}
	one, _, first := scan(rows[:groupRows])
	sixteen, text, _ := scan(rows)
	if limit := first + 4<<10; one > limit {
		t.Errorf("a warm scan of one row group allocates %d bytes: want at most %d (%d of it its string text), no payload array", one, limit, first)
	}
	if limit := one + text + 15*3<<10; sixteen > limit {
		t.Errorf("a scan of 16 row groups allocates %d bytes, one of its groups %d: want at most %d (%d of it the other groups' string text)",
			sixteen, one, limit, text)
	}
}

// TestRecordsAllocatesPerResponse pins the one read of a response's records
// this package still makes: Check, which every response off the wire passes
// before its rows are decoded, walks them in the scanner's own few arrays,
// whatever the row count, and keeps none of them. (The rows' decode itself
// is the engine's, pinned per response by TestDecodeAllocatesPerChunk.)
func TestRecordsAllocatesPerResponse(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts differ under the race detector")
	}
	for _, rows := range []int{60, 6000} {
		res, err := Execute(lineitemCSV(rows), Request{SQL: projectSQL, HasHeader: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.RowsReturned != int64(rows) {
			t.Fatalf("a %d-row projection returned %d rows", rows, res.Stats.RowsReturned)
		}
		if total := testing.AllocsPerRun(10, func() {
			if err := res.Check(); err != nil {
				t.Fatal(err)
			}
		}); total > 6 {
			t.Errorf("checking a %d-row response allocates %v times, want at most 6", rows, total)
		}
	}
}
