package selectengine

import (
	"fmt"
	"reflect"
	"runtime"
	"strconv"
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
// set-up, then an allocation each time the body doubles — not one per row,
// let alone per cell — so a hundredfold response costs a handful more.
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

// TestColumnarScanAllocatesPerScan pins that a columnar scan allocates per
// scan, not per row group: each column decodes into the vector the previous
// group's did, and no chunk inflates into a buffer of its own. So an object
// of 16 row groups costs what one of its groups does, plus only what the
// other 15 own: their string chunks' text, and under 3 KB a group for their
// footer entries and flate's Huffman tables (1.8 KB measured). Decoding
// each group into fresh vectors cost its four payloads and inflate buffers
// again, 20 KB a group.
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
	scan := func(rows [][]value.Value) (allocated, text uint64) {
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
		return (after.TotalAlloc - before.TotalAlloc) / runs, text
	}
	one, _ := scan(rows[:groupRows])
	sixteen, text := scan(rows)
	if limit := one + text + 15*3<<10; sixteen > limit {
		t.Errorf("a scan of 16 row groups allocates %d bytes, one of its groups %d: want at most %d (%d of it the other groups' string text)",
			sixteen, one, limit, text)
	}
}

// TestRecordsAllocatesPerResponse pins the decode the planner's sample and
// every small consumer of a response use: one array for the cells, one for
// the rows and the scanner's own few, whatever the row count.
func TestRecordsAllocatesPerResponse(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts differ under the race detector")
	}
	for _, rows := range []int{60, 6000} {
		res, err := Execute(lineitemCSV(rows), Request{SQL: projectSQL, HasHeader: true})
		if err != nil {
			t.Fatal(err)
		}
		if total := testing.AllocsPerRun(10, func() { rowsOf(t, res) }); total > 6 {
			t.Errorf("decoding a %d-row response allocates %v times, want at most 6", rows, total)
		}
	}
}
