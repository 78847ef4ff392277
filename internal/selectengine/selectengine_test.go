package selectengine

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"pushdowndb/internal/colformat"
	"pushdowndb/internal/csvx"
	"pushdowndb/internal/expr"
	"pushdowndb/internal/sqlparse"
	"pushdowndb/internal/value"
)

var customerCSV = csvx.Encode(
	[]string{"c_custkey", "c_name", "c_acctbal", "c_nationkey"},
	[][]string{
		{"1", "Customer#1", "-980.5", "0"},
		{"2", "Customer#2", "150.5", "1"},
		{"3", "Customer#3", "-960.0", "0"},
		{"4", "Customer#4", "3000.25", "2"},
		{"5", "Customer#5", "-955.1", "1"},
	},
)

func run(t *testing.T, data []byte, sql string) *Result {
	t.Helper()
	res, err := Execute(data, Request{SQL: sql, HasHeader: true})
	if err != nil {
		t.Fatalf("Execute(%q): %v", sql, err)
	}
	return res
}

func TestProjection(t *testing.T) {
	res := run(t, customerCSV, "SELECT c_custkey, c_acctbal FROM S3Object")
	if len(rowsOf(t, res)) != 5 || len(rowsOf(t, res)[0]) != 2 {
		t.Fatalf("rows = %v", rowsOf(t, res))
	}
	if rowsOf(t, res)[0][0] != "1" || rowsOf(t, res)[0][1] != "-980.5" {
		t.Errorf("row0 = %v", rowsOf(t, res)[0])
	}
	if !reflect.DeepEqual(res.Columns, []string{"c_custkey", "c_acctbal"}) {
		t.Errorf("columns = %v", res.Columns)
	}
}

func TestSelectStar(t *testing.T) {
	res := run(t, customerCSV, "SELECT * FROM S3Object")
	if len(rowsOf(t, res)) != 5 || len(rowsOf(t, res)[0]) != 4 {
		t.Fatalf("rows = %v", rowsOf(t, res))
	}
}

func TestFilterNumericOnCSVStrings(t *testing.T) {
	// The paper's Fig. 2 predicate: numeric comparison over CSV text.
	res := run(t, customerCSV, "SELECT c_custkey FROM S3Object WHERE c_acctbal <= -950")
	var got []string
	for _, r := range rowsOf(t, res) {
		got = append(got, r[0])
	}
	if !reflect.DeepEqual(got, []string{"1", "3", "5"}) {
		t.Errorf("filtered keys = %v", got)
	}
}

func TestAggregates(t *testing.T) {
	res := run(t, customerCSV, "SELECT COUNT(*), SUM(c_acctbal), MIN(c_acctbal), MAX(c_acctbal), AVG(c_nationkey) FROM S3Object")
	if len(rowsOf(t, res)) != 1 {
		t.Fatalf("agg rows = %v", rowsOf(t, res))
	}
	row := rowsOf(t, res)[0]
	if row[0] != "5" {
		t.Errorf("count = %q", row[0])
	}
	if row[2] != "-980.5" || row[3] != "3000.25" {
		t.Errorf("min/max = %q/%q", row[2], row[3])
	}
	if row[4] != "0.8" {
		t.Errorf("avg = %q", row[4])
	}
}

func TestAggregateWithCase(t *testing.T) {
	// The S3-side group-by phase 2 query shape (Listing 4).
	sql := `SELECT SUM(CASE WHEN c_nationkey = 0 THEN c_acctbal ELSE 0 END),
	               SUM(CASE WHEN c_nationkey = 1 THEN c_acctbal ELSE 0 END)
	        FROM S3Object`
	res := run(t, customerCSV, sql)
	row := rowsOf(t, res)[0]
	if row[0] != "-1940.5" {
		t.Errorf("nation 0 sum = %q", row[0])
	}
	if row[1] != "-804.6" {
		t.Errorf("nation 1 sum = %q", row[1])
	}
}

func TestLimitEarlyTermination(t *testing.T) {
	res := run(t, customerCSV, "SELECT c_custkey FROM S3Object LIMIT 2")
	if len(rowsOf(t, res)) != 2 {
		t.Fatalf("rows = %v", rowsOf(t, res))
	}
	if res.Stats.BytesScanned >= int64(len(customerCSV)) {
		t.Errorf("LIMIT should stop the scan early: scanned %d of %d",
			res.Stats.BytesScanned, len(customerCSV))
	}
	if res.Stats.RowsScanned != 2 {
		t.Errorf("rows scanned = %d", res.Stats.RowsScanned)
	}
}

func TestScanRange(t *testing.T) {
	// Find the byte offset of the third data row and scan from there.
	ranges, err := csvx.RowRanges(customerCSV, true)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Execute(customerCSV, Request{
		SQL:       "SELECT c_custkey FROM S3Object",
		HasHeader: true,
		ScanRange: &ScanRange{Start: ranges[2][0], End: int64(len(customerCSV))},
	})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, r := range rowsOf(t, res) {
		got = append(got, r[0])
	}
	if !reflect.DeepEqual(got, []string{"3", "4", "5"}) {
		t.Errorf("range scan keys = %v", got)
	}
	if res.Stats.BytesScanned >= int64(len(customerCSV)) {
		t.Error("range scan should not scan the whole object")
	}
}

func TestBloomStringPredicate(t *testing.T) {
	// The paper's Listing 1: probe a '0'/'1' string with SUBSTRING.
	// Bit array "01010" (positions 1..5); hash = ((1*x + 0) % 7) % 5 + 1.
	// custkey 1 -> pos 2 = '1' pass; custkey 2 -> pos 3 = '0' fail;
	// custkey 3 -> pos 4 = '1' pass.
	sql := "SELECT c_custkey FROM S3Object WHERE SUBSTRING('01010', ((1 * CAST(c_custkey AS INT) + 0) % 7) % 5 + 1, 1) = '1'"
	res := run(t, customerCSV, sql)
	var got []string
	for _, r := range rowsOf(t, res) {
		got = append(got, r[0])
	}
	if !reflect.DeepEqual(got, []string{"1", "3"}) {
		t.Errorf("bloom-filtered keys = %v", got)
	}
}

func TestRestrictions(t *testing.T) {
	cases := []string{
		"SELECT c_custkey FROM S3Object ORDER BY c_custkey",
		"SELECT c_nationkey, SUM(c_acctbal) FROM S3Object GROUP BY c_nationkey",
		"SELECT c_custkey, SUM(c_acctbal) FROM S3Object",
		"SELECT *, COUNT(*) FROM S3Object",
	}
	for _, sql := range cases {
		if _, err := Execute(customerCSV, Request{SQL: sql, HasHeader: true}); err == nil {
			t.Errorf("%q should be rejected", sql)
		}
	}
}

func TestExpressionSizeLimit(t *testing.T) {
	big := "SELECT c_custkey FROM S3Object WHERE SUBSTRING('" +
		strings.Repeat("1", MaxSQLBytes) + "', 1, 1) = '1'"
	if _, err := Execute(customerCSV, Request{SQL: big, HasHeader: true}); err == nil {
		t.Error("oversized SQL should be rejected")
	}
}

func TestGroupByExtension(t *testing.T) {
	sql := "SELECT c_nationkey, SUM(c_acctbal) FROM S3Object GROUP BY c_nationkey"
	res, err := Execute(customerCSV, Request{
		SQL: sql, HasHeader: true,
		Capabilities: Capabilities{AllowGroupBy: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	sums := map[string]string{}
	for _, r := range rowsOf(t, res) {
		sums[r[0]] = r[1]
	}
	if sums["0"] != "-1940.5" || sums["1"] != "-804.6" || sums["2"] != "3000.25" {
		t.Errorf("group sums = %v", sums)
	}
}

func TestBloomContainsExtension(t *testing.T) {
	// m=8 bits, bits {1,3} set -> 0x0A; hash ((1*x+0)%11)%8.
	sql := "SELECT c_custkey FROM S3Object WHERE BLOOM_CONTAINS('0a', 8, 11, 1, 0, CAST(c_custkey AS INT))"
	if _, err := Execute(customerCSV, Request{SQL: sql, HasHeader: true}); err == nil {
		t.Error("BLOOM_CONTAINS must require the capability flag")
	}
	res, err := Execute(customerCSV, Request{
		SQL: sql, HasHeader: true,
		Capabilities: Capabilities{AllowBloomContains: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, r := range rowsOf(t, res) {
		got = append(got, r[0])
	}
	if !reflect.DeepEqual(got, []string{"1", "3"}) {
		t.Errorf("bloom keys = %v", got)
	}
}

func TestPositionalColumns(t *testing.T) {
	res := run(t, customerCSV, "SELECT _1, _3 FROM S3Object WHERE _4 = 2")
	if len(rowsOf(t, res)) != 1 || rowsOf(t, res)[0][0] != "4" {
		t.Errorf("positional rows = %v", rowsOf(t, res))
	}
}

func TestStatsAccounting(t *testing.T) {
	res := run(t, customerCSV, "SELECT c_custkey FROM S3Object WHERE c_acctbal <= -950")
	if res.Stats.BytesScanned != int64(len(customerCSV)) {
		t.Errorf("full scan should scan the whole object: %d", res.Stats.BytesScanned)
	}
	if res.Stats.RowsScanned != 5 || res.Stats.RowsReturned != 3 {
		t.Errorf("rows scanned/returned = %d/%d", res.Stats.RowsScanned, res.Stats.RowsReturned)
	}
	if res.Stats.BytesReturned <= 0 || res.Stats.BytesReturned >= res.Stats.BytesScanned {
		t.Errorf("bytes returned = %d", res.Stats.BytesReturned)
	}
	if res.Stats.ExprNodes <= 0 {
		t.Error("expression node count missing")
	}
}

// TestEmptyObject: a zero-byte object is a partition with no rows, header
// or not. The statement runs over them, so SELECT * returns nothing and an
// aggregate its one row: COUNT 0, SUM NULL.
func TestEmptyObject(t *testing.T) {
	for _, hasHeader := range []bool{true, false} {
		res, err := Execute(nil, Request{SQL: "SELECT * FROM S3Object", HasHeader: hasHeader})
		if err != nil {
			t.Fatal(err)
		}
		if len(rowsOf(t, res)) != 0 {
			t.Errorf("header=%v: SELECT * rows = %v", hasHeader, rowsOf(t, res))
		}
		res, err = Execute(nil, Request{SQL: "SELECT COUNT(*), SUM(a) FROM S3Object", HasHeader: hasHeader})
		if err != nil {
			t.Fatal(err)
		}
		if want := [][]string{{"0", ""}}; !reflect.DeepEqual(rowsOf(t, res), want) {
			t.Errorf("header=%v: COUNT(*), SUM(a) rows = %q, want %q", hasHeader, rowsOf(t, res), want)
		}
		// No header, so no name to refuse: every column reads NULL over the
		// rows there are not.
		for sql, want := range map[string][][]string{
			"SELECT _3 FROM S3Object WHERE _1 > 0":     nil,
			"SELECT COUNT(*), SUM(_3) FROM S3Object":   {{"0", ""}},
			"SELECT MAX(_3) FROM S3Object GROUP BY _3": nil,
		} {
			res, err := Execute(nil, Request{SQL: sql, HasHeader: hasHeader, Capabilities: Capabilities{AllowGroupBy: true}})
			if err != nil {
				t.Fatalf("header=%v: %s: %v", hasHeader, sql, err)
			}
			if got := rowsOf(t, res); len(got) != len(want) || len(want) > 0 && !reflect.DeepEqual(got, want) {
				t.Errorf("header=%v: %s rows = %q, want %q", hasHeader, sql, got, want)
			}
		}
	}
}

// TestUnknownColumnOverNoRows: an object with a header and no rows binds the
// statement to that header — a header-only CSV object, a colformat object of
// no rows — so a column it lacks is refused, as over rows, and a statement
// it binds answers as a partition with no rows.
func TestUnknownColumnOverNoRows(t *testing.T) {
	columnar, err := colformat.Encode(colformat.Schema{{Name: "a", Kind: value.KindInt}, {Name: "b", Kind: value.KindString}}, nil, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{"csv": []byte("a,b\n"), "colformat": columnar} {
		for _, sql := range []string{
			"SELECT nosuch FROM S3Object",
			"SELECT a FROM S3Object WHERE a > 0 OR nosuch = 1",
			"SELECT COUNT(nosuch) FROM S3Object",
			"SELECT _3 FROM S3Object",
		} {
			if _, err := Execute(data, Request{SQL: sql, HasHeader: true}); !errors.Is(err, expr.ErrUnknownColumn) {
				t.Errorf("%s: %s: err %v, want an unknown column", name, sql, err)
			}
		}
		res := run(t, data, "SELECT COUNT(*), SUM(a), MAX(_2) FROM S3Object")
		if want := [][]string{{"0", "", ""}}; !reflect.DeepEqual(rowsOf(t, res), want) {
			t.Errorf("%s: aggregate rows = %q, want %q", name, rowsOf(t, res), want)
		}
		if res := run(t, data, "SELECT * FROM S3Object"); len(rowsOf(t, res)) != 0 || !reflect.DeepEqual(res.Columns, []string{"a", "b"}) {
			t.Errorf("%s: SELECT * = %q over columns %q", name, rowsOf(t, res), res.Columns)
		}
	}
}

func TestNullFieldsAreEmptyStrings(t *testing.T) {
	data := csvx.Encode([]string{"a", "b"}, [][]string{{"", "1"}, {"2", ""}})
	res := run(t, data, "SELECT a FROM S3Object WHERE a IS NOT NULL")
	if len(rowsOf(t, res)) != 1 || rowsOf(t, res)[0][0] != "2" {
		t.Errorf("rows = %v", rowsOf(t, res))
	}
}

// --- Columnar ---

func columnarCustomer(t *testing.T) []byte {
	t.Helper()
	schema := colformat.Schema{
		{Name: "c_custkey", Kind: value.KindInt},
		{Name: "c_name", Kind: value.KindString},
		{Name: "c_acctbal", Kind: value.KindFloat},
		{Name: "c_nationkey", Kind: value.KindInt},
	}
	rows := [][]value.Value{
		{value.Int(1), value.Str("Customer#1"), value.Float(-980.5), value.Int(0)},
		{value.Int(2), value.Str("Customer#2"), value.Float(150.5), value.Int(1)},
		{value.Int(3), value.Str("Customer#3"), value.Float(-960.0), value.Int(0)},
		{value.Int(4), value.Str("Customer#4"), value.Float(3000.25), value.Int(2)},
		{value.Int(5), value.Str("Customer#5"), value.Float(-955.1), value.Int(1)},
	}
	data, err := colformat.Encode(schema, rows, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestColumnarFilterMatchesCSV(t *testing.T) {
	sqls := []string{
		"SELECT c_custkey FROM S3Object WHERE c_acctbal <= -950",
		"SELECT COUNT(*), SUM(c_acctbal) FROM S3Object",
		"SELECT * FROM S3Object WHERE c_nationkey = 1",
	}
	colData := columnarCustomer(t)
	for _, sql := range sqls {
		a := run(t, customerCSV, sql)
		b := run(t, colData, sql)
		if !reflect.DeepEqual(rowsOf(t, a), rowsOf(t, b)) {
			t.Errorf("%q: CSV %v != columnar %v", sql, rowsOf(t, a), rowsOf(t, b))
		}
	}
}

func TestColumnarPruning(t *testing.T) {
	colData := columnarCustomer(t)
	one := run(t, colData, "SELECT c_custkey FROM S3Object")
	all := run(t, colData, "SELECT * FROM S3Object")
	if one.Stats.BytesScanned >= all.Stats.BytesScanned {
		t.Errorf("column pruning should scan fewer bytes: %d vs %d",
			one.Stats.BytesScanned, all.Stats.BytesScanned)
	}
}

func TestColumnarRowGroupSkip(t *testing.T) {
	// Row groups of 2: keys (1,2),(3,4),(5). Predicate c_custkey > 4 can
	// skip the first two groups via min/max stats.
	colData := columnarCustomer(t)
	res := run(t, colData, "SELECT c_custkey FROM S3Object WHERE c_custkey > 4")
	if len(rowsOf(t, res)) != 1 || rowsOf(t, res)[0][0] != "5" {
		t.Fatalf("rows = %v", rowsOf(t, res))
	}
	if res.Stats.RowsScanned != 1 {
		t.Errorf("row-group skipping failed: scanned %d rows", res.Stats.RowsScanned)
	}
}

// TestColumnarRowGroupSkipIsSound: a row group is skipped only when its
// chunk's min/max bound what the comparison sees. Across numeric-looking and
// other text, and between a number and text that is not one, value.Compare
// is no order the statistics could have been taken in (9 < 10 < 5x < 9), so
// those scans read every group. Each answer must be the CSV copy's, and the
// one with the literal on the left, which no statistic refutes. The first
// six returned nothing when their group was skipped.
func TestColumnarRowGroupSkipIsSound(t *testing.T) {
	strs := func(ss ...string) []value.Value {
		out := make([]value.Value, len(ss))
		for i, s := range ss {
			out[i] = value.Str(s)
		}
		return out
	}
	for _, c := range []struct {
		kind      value.Kind
		vals      []value.Value
		groupRows int
		where     string
		want      [][]string // nil: only the three answers must agree
	}{
		{value.KindString, strs("9", "5x", "10"), 0, "s = '9'", [][]string{{"9"}}},
		{value.KindString, strs("9", "5x", "10"), 0, "s < '6'", [][]string{{"5x"}}},
		{value.KindString, strs("9", "10"), 0, "s > '2x'", [][]string{{"9"}}},
		{value.KindString, strs("1a", "9", "z"), 0, "s < '10'", [][]string{{"9"}}},
		{value.KindFloat, []value.Value{value.Float(9), value.Float(10)}, 0, "s > '2x'", [][]string{{"9"}}},
		{value.KindInt, []value.Value{value.Int(9), value.Int(10)}, 0, "s > '2x'", [][]string{{"9"}}},
		{value.KindString, strs("9", "5x", "10", "z", "1a", "8", "-1", "x"), 2, "s = '9'", nil},
		{value.KindString, strs("9", "5x", "10", "z", "1a", "8", "-1", "x"), 2, "s >= '5x'", nil},
		{value.KindString, strs("9", "5x", "10", "z", "1a", "8", "-1", "x"), 2, "s <= '10'", nil},
		{value.KindInt, []value.Value{value.Int(9), value.Int(10), value.Int(-3), value.Null(), value.Int(700)}, 2, "s < '2x'", nil},
		{value.KindInt, []value.Value{value.Int(9), value.Int(10), value.Int(-3), value.Null(), value.Int(700)}, 2, "s > 9", [][]string{{"10"}, {"700"}}},
		{value.KindDate, []value.Value{value.Date(9000), value.Date(9100), value.Date(9200)}, 2, "s > '1994-12-01'", [][]string{{"1995-03-11"}}},
	} {
		rows, cells := make([][]value.Value, len(c.vals)), make([][]string, len(c.vals))
		for i, v := range c.vals {
			rows[i], cells[i] = []value.Value{v}, []string{""}
			if !v.IsNull() {
				cells[i][0] = v.String()
			}
		}
		col, err := colformat.Encode(colformat.Schema{{Name: "s", Kind: c.kind}}, rows, c.groupRows, false)
		if err != nil {
			t.Fatal(err)
		}
		got := rowsOf(t, run(t, col, "SELECT s FROM S3Object WHERE "+c.where))
		csv := rowsOf(t, run(t, csvx.Encode([]string{"s"}, cells), "SELECT s FROM S3Object WHERE "+c.where))
		f := strings.Fields(c.where)
		mirrored := map[string]string{"=": "=", "<": ">", ">": "<", "<=": ">=", ">=": "<="}[f[1]]
		unpruned := rowsOf(t, run(t, col, "SELECT s FROM S3Object WHERE "+f[2]+" "+mirrored+" s"))
		if !reflect.DeepEqual(got, csv) || !reflect.DeepEqual(got, unpruned) || (c.want != nil && !reflect.DeepEqual(got, c.want)) {
			t.Errorf("%s %v WHERE %s: columnar %q, CSV %q, literal first %q, want %q", c.kind, c.vals, c.where, got, csv, unpruned, c.want)
		}
	}
}

func TestColumnarRejectsScanRange(t *testing.T) {
	_, err := Execute(columnarCustomer(t), Request{
		SQL:       "SELECT * FROM S3Object",
		ScanRange: &ScanRange{0, 10},
	})
	if err == nil {
		t.Error("ScanRange over columnar should be rejected")
	}
}

func TestCountNodes(t *testing.T) {
	sel, _ := sqlparse.Parse("SELECT a FROM t WHERE b = 1 AND c < 2")
	n := CountNodes(sel)
	if n < 7 {
		t.Errorf("CountNodes = %d, want >= 7", n)
	}
	sel2, _ := sqlparse.Parse("SELECT a FROM t")
	if CountNodes(sel2) >= n {
		t.Error("simpler query should have fewer nodes")
	}
}

// Property: S3-side filter returns exactly the rows a local filter keeps.
func TestQuickFilterEquivalence(t *testing.T) {
	f := func(vals []int16, threshold int16) bool {
		if len(vals) == 0 {
			return true
		}
		rows := make([][]string, len(vals))
		for i, v := range vals {
			rows[i] = []string{fmt.Sprint(v)}
		}
		data := csvx.Encode([]string{"x"}, rows)
		res, err := Execute(data, Request{
			SQL:       fmt.Sprintf("SELECT x FROM S3Object WHERE x <= %d", threshold),
			HasHeader: true,
		})
		if err != nil {
			return false
		}
		var want []string
		for _, v := range vals {
			if v <= threshold {
				want = append(want, fmt.Sprint(v))
			}
		}
		if len(rowsOf(t, res)) != len(want) {
			return false
		}
		for i := range want {
			if rowsOf(t, res)[i][0] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: SUM pushdown equals local summation.
func TestQuickSumEquivalence(t *testing.T) {
	f := func(vals []int16) bool {
		rows := make([][]string, len(vals))
		var want int64
		for i, v := range vals {
			rows[i] = []string{fmt.Sprint(v)}
			want += int64(v)
		}
		data := csvx.Encode([]string{"x"}, rows)
		res, err := Execute(data, Request{SQL: "SELECT SUM(x) FROM S3Object", HasHeader: true})
		if err != nil {
			return false
		}
		if len(vals) == 0 {
			return rowsOf(t, res)[0][0] == "" // SUM over empty is NULL
		}
		return rowsOf(t, res)[0][0] == fmt.Sprint(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// The fingerprint is the identity of a response for the result cache and
// the scan-sharing coordinator alike: requests differing only in header
// mode, one capability flag or the scan range must never collide.
func TestFingerprintSeparatesRequestParameters(t *testing.T) {
	const sql = "SELECT a FROM S3Object"
	variants := []Request{
		{SQL: sql, HasHeader: true},
		{SQL: sql},
		{SQL: sql, HasHeader: true, Capabilities: Capabilities{AllowGroupBy: true}},
		{SQL: sql, HasHeader: true, Capabilities: Capabilities{AllowBloomContains: true}},
		{SQL: sql, HasHeader: true, ScanRange: &ScanRange{Start: 0, End: 9}},
		{SQL: sql, HasHeader: true, ScanRange: &ScanRange{Start: 0, End: 10}},
	}
	seen := map[string]int{}
	for i, req := range variants {
		fp := req.Fingerprint()
		if j, dup := seen[fp]; dup {
			t.Fatalf("requests %d and %d share fingerprint %q", j, i, fp)
		}
		seen[fp] = i
	}
}

// rowsOf is the response's rows (bodyRows); a body that does not hold them
// fails t.
func rowsOf(t testing.TB, res *Result) [][]string {
	t.Helper()
	rows, err := bodyRows(res)
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	return rows
}

// bodyRows is the response's body read by a CSV scanner, each row's cells
// as text, once Check has found it the rows of len(Columns) cells its stats
// claim.
func bodyRows(res *Result) ([][]string, error) {
	if err := res.Check(); err != nil {
		return nil, err
	}
	rows := [][]string{}
	for sc := csvx.NewScanner(res.Body); sc.Scan(); {
		rows = append(rows, csvx.CloneRow(sc.Fields()))
	}
	return rows, nil
}
