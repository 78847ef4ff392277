package selectengine

import (
	"reflect"
	"strconv"
	"testing"

	"pushdowndb/internal/csvx"
	"pushdowndb/internal/race"
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
	if want := [][]string{{"bob"}}; !reflect.DeepEqual(res.Rows, want) {
		t.Errorf("rows = %q, want %q", res.Rows, want)
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
	if want := [][]string{{"1", "ann", "10"}, {"2", "bob", ""}}; !reflect.DeepEqual(res.Rows, want) {
		t.Errorf("rows = %q, want %q", res.Rows, want)
	}
}

// TestResultOwnsItsBytes scans a private buffer, overwrites it, and expects
// every string of the Result — projected cells, the captured header, group
// keys, MIN/MAX — to be unchanged: a Result is cached and shared between
// requests long after the object it came from may be gone.
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
		if !reflect.DeepEqual(got.Columns, want.Columns) || !reflect.DeepEqual(got.Rows, want.Rows) {
			t.Errorf("%s: result changed when the scanned buffer was overwritten:\n got %q %q\nwant %q %q",
				sql, got.Columns, got.Rows, want.Columns, want.Rows)
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
// set-up, then an allocation per chunk of text, of cell headers and of the
// row list as they double — not two per row, let alone one per cell.
func TestResponseAllocatesPerChunk(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts differ under the race detector")
	}
	for _, rows := range []int{60, 6000} {
		data := lineitemCSV(rows)
		var res *Result
		total := testing.AllocsPerRun(10, func() {
			var err error
			if res, err = Execute(data, Request{SQL: projectSQL, HasHeader: true}); err != nil {
				t.Fatal(err)
			}
		})
		if limit := float64(110 + rows/50); total > limit {
			t.Errorf("a %d-row response allocates %v times, want at most %v", rows, total, limit)
		}
		if want := []string{"4001", "20321.500799999998", "1996-03-13", "TRUCK"}; len(res.Rows) != rows || !reflect.DeepEqual(res.Rows[0], want) {
			t.Errorf("%d rows, first %q; want %d, first %q", len(res.Rows), res.Rows[0], rows, want)
		}
	}
}

// TestResultRowsDoNotAlias: a response's rows are windows of shared arrays,
// cut so that growing one reallocates it instead of writing into the next.
func TestResultRowsDoNotAlias(t *testing.T) {
	res, err := Execute(lineitemCSV(50), Request{SQL: projectSQL, HasHeader: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < len(res.Rows); i++ {
		next := append([]string{}, res.Rows[i+1]...)
		if cap(res.Rows[i]) != len(res.Rows[i]) {
			t.Fatalf("row %d has capacity %d beyond its %d cells", i, cap(res.Rows[i]), len(res.Rows[i]))
		}
		_ = append(res.Rows[i], "overflow")
		if !reflect.DeepEqual(res.Rows[i+1], next) {
			t.Fatalf("append to row %d rewrote row %d: %q, was %q", i, i+1, res.Rows[i+1], next)
		}
	}
}
