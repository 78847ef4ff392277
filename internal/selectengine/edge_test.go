package selectengine

import (
	"reflect"
	"testing"

	"pushdowndb/internal/colformat"
	"pushdowndb/internal/csvx"
	"pushdowndb/internal/value"
)

func TestExtractPushdown(t *testing.T) {
	data := csvx.Encode([]string{"d", "v"}, [][]string{
		{"1994-03-15", "10"}, {"1995-07-01", "20"}, {"1994-12-31", "30"},
	})
	res := run(t, data, "SELECT v FROM S3Object WHERE EXTRACT(YEAR FROM d) = 1994")
	if len(rowsOf(t, res)) != 2 {
		t.Fatalf("rows = %v", rowsOf(t, res))
	}
	res = run(t, data, "SELECT SUM(CASE WHEN EXTRACT(MONTH FROM d) = 3 THEN v ELSE 0 END) FROM S3Object")
	if rowsOf(t, res)[0][0] != "10" {
		t.Errorf("march sum = %q", rowsOf(t, res)[0][0])
	}
}

func TestCoalesceNullifPushdown(t *testing.T) {
	data := csvx.Encode([]string{"a", "b"}, [][]string{
		{"", "5"}, {"3", "7"}, {"", ""},
	})
	res := run(t, data, "SELECT COALESCE(a, b, 0) FROM S3Object")
	var got []string
	for _, r := range rowsOf(t, res) {
		got = append(got, r[0])
	}
	if !reflect.DeepEqual(got, []string{"5", "3", "0"}) {
		t.Errorf("coalesce column = %v", got)
	}
	res = run(t, data, "SELECT a FROM S3Object WHERE NULLIF(b, 5) IS NOT NULL")
	if len(rowsOf(t, res)) != 1 || rowsOf(t, res)[0][0] != "3" {
		t.Errorf("nullif filter = %v", rowsOf(t, res))
	}
}

func TestAggregateIgnoresLimitlessScan(t *testing.T) {
	// Aggregates scan the whole object even when LIMIT is present (LIMIT
	// applies to output rows, and aggregation yields one).
	res := run(t, customerCSV, "SELECT COUNT(*) FROM S3Object LIMIT 1")
	if rowsOf(t, res)[0][0] != "5" {
		t.Errorf("count = %q", rowsOf(t, res)[0][0])
	}
	if res.Stats.BytesScanned != int64(len(customerCSV)) {
		t.Errorf("aggregate under LIMIT should scan fully: %d", res.Stats.BytesScanned)
	}
}

func TestScanRangeMidRowStart(t *testing.T) {
	// A range starting in the middle of a row must skip to the next full
	// row (rows are attributed to their starting offset).
	ranges, _ := csvx.RowRanges(customerCSV, true)
	start := ranges[1][0] + 2 // inside row 2
	res, err := Execute(customerCSV, Request{
		SQL:       "SELECT c_custkey FROM S3Object",
		HasHeader: true,
		ScanRange: &ScanRange{Start: start, End: int64(len(customerCSV))},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rowsOf(t, res)) != 3 || rowsOf(t, res)[0][0] != "3" {
		t.Errorf("rows = %v (range should start at the next row boundary)", rowsOf(t, res))
	}
}

func TestScanRangeEmptyWindow(t *testing.T) {
	res, err := Execute(customerCSV, Request{
		SQL:       "SELECT * FROM S3Object",
		HasHeader: true,
		ScanRange: &ScanRange{Start: int64(len(customerCSV)) - 1, End: int64(len(customerCSV))},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rowsOf(t, res)) != 0 {
		t.Errorf("rows = %v", rowsOf(t, res))
	}
	if res.Stats.BytesScanned != 0 {
		t.Errorf("empty window scanned %d bytes", res.Stats.BytesScanned)
	}
}

func TestQuotedCSVDataThroughSelect(t *testing.T) {
	data := csvx.Encode([]string{"name", "note"}, [][]string{
		{"a,b", "said \"hi\""},
		{"plain", "multi\nline"},
	})
	res := run(t, data, "SELECT name, note FROM S3Object WHERE name = 'a,b'")
	if len(rowsOf(t, res)) != 1 || rowsOf(t, res)[0][1] != `said "hi"` {
		t.Errorf("rows = %q", rowsOf(t, res))
	}
}

func TestCellAccounting(t *testing.T) {
	res := run(t, customerCSV, "SELECT c_custkey FROM S3Object")
	// CSV decodes every cell of every row: 5 rows x 4 columns.
	if res.Stats.CellsDecoded != 20 {
		t.Errorf("CSV cells = %d, want 20", res.Stats.CellsDecoded)
	}
	colData := columnarCustomer(t)
	res2 := run(t, colData, "SELECT c_custkey FROM S3Object")
	// Columnar decodes only the referenced column: 5 rows x 1 column.
	if res2.Stats.CellsDecoded != 5 {
		t.Errorf("columnar cells = %d, want 5", res2.Stats.CellsDecoded)
	}
	if res2.Stats.DecompressBytes != 0 {
		t.Errorf("uncompressed chunks should report no inflate bytes, got %d",
			res2.Stats.DecompressBytes)
	}
}

func TestColumnarCompressedDecompressAccounting(t *testing.T) {
	schema := colformat.Schema{{Name: "s", Kind: value.KindString}}
	rows := make([][]value.Value, 500)
	for i := range rows {
		rows[i] = []value.Value{value.Str("repetitive-payload-compresses-well")}
	}
	data, err := colformat.Encode(schema, rows, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	res := run(t, data, "SELECT s FROM S3Object")
	if res.Stats.DecompressBytes <= res.Stats.BytesScanned {
		t.Errorf("inflate bytes %d should exceed compressed scan bytes %d",
			res.Stats.DecompressBytes, res.Stats.BytesScanned)
	}
}

func TestColumnarLimitStopsEarly(t *testing.T) {
	colData := columnarCustomer(t) // row groups of 2
	res := run(t, colData, "SELECT c_custkey FROM S3Object LIMIT 2")
	if len(rowsOf(t, res)) != 2 {
		t.Fatalf("rows = %v", rowsOf(t, res))
	}
	if res.Stats.RowsScanned != 2 {
		t.Errorf("scanned %d rows, early termination broken", res.Stats.RowsScanned)
	}
}

func TestColumnarLike(t *testing.T) {
	colData := columnarCustomer(t)
	res := run(t, colData, "SELECT c_name FROM S3Object WHERE c_name LIKE '%#4'")
	if len(rowsOf(t, res)) != 1 || rowsOf(t, res)[0][0] != "Customer#4" {
		t.Errorf("rows = %v", rowsOf(t, res))
	}
}

func TestColumnarNullsInPredicate(t *testing.T) {
	schema := colformat.Schema{
		{Name: "k", Kind: value.KindInt},
		{Name: "v", Kind: value.KindFloat},
	}
	rows := [][]value.Value{
		{value.Int(1), value.Float(10)},
		{value.Int(2), value.Null()},
		{value.Int(3), value.Float(30)},
	}
	data, err := colformat.Encode(schema, rows, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	res := run(t, data, "SELECT k FROM S3Object WHERE v > 5")
	if len(rowsOf(t, res)) != 2 {
		t.Errorf("NULL must not satisfy the predicate: %v", rowsOf(t, res))
	}
	res = run(t, data, "SELECT k FROM S3Object WHERE v IS NULL")
	if len(rowsOf(t, res)) != 1 || rowsOf(t, res)[0][0] != "2" {
		t.Errorf("IS NULL rows = %v", rowsOf(t, res))
	}
	// Aggregates skip NULLs.
	res = run(t, data, "SELECT COUNT(v), AVG(v) FROM S3Object")
	if rowsOf(t, res)[0][0] != "2" || rowsOf(t, res)[0][1] != "20" {
		t.Errorf("agg over NULLs = %v", rowsOf(t, res)[0])
	}
}

func TestConstantItemsWithAggregates(t *testing.T) {
	res := run(t, customerCSV, "SELECT 42, COUNT(*) FROM S3Object")
	if rowsOf(t, res)[0][0] != "42" || rowsOf(t, res)[0][1] != "5" {
		t.Errorf("row = %v", rowsOf(t, res)[0])
	}
}
