package selectengine

import (
	"reflect"
	"strings"
	"testing"

	"pushdowndb/internal/csvx"
	"pushdowndb/internal/race"
	"pushdowndb/internal/sqlparse"
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

// TestProjectAllocatesTwicePerRow pins what an output row costs: its
// []string and the one string its cells are cut from — not one allocation
// per cell, number or text.
func TestProjectAllocatesTwicePerRow(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts differ under the race detector")
	}
	sel, err := sqlparse.Parse("SELECT l_orderkey, l_extendedprice * (1 - l_discount), l_shipdate, l_shipmode FROM S3Object")
	if err != nil {
		t.Fatal(err)
	}
	header := []string{"l_orderkey", "l_extendedprice", "l_discount", "l_shipdate", "l_shipmode"}
	env := &rowEnv{index: headerIndex(header), fields: strings.Split("4001,21168.23,0.04,1996-03-13,TRUCK", ",")}
	ex := newExecutor(sel, header, env)
	var row []string
	if n := testing.AllocsPerRun(100, func() {
		ex.rows = ex.rows[:0]
		if err = ex.rx.Add(env); err != nil {
			t.Fatal(err)
		}
		row = ex.rows[0]
	}); n != 2 {
		t.Errorf("project allocates %v times per row, want 2", n)
	}
	if want := []string{"4001", "20321.500799999998", "1996-03-13", "TRUCK"}; !reflect.DeepEqual(row, want) {
		t.Errorf("row = %q, want %q", row, want)
	}
}
