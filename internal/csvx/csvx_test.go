package csvx

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"pushdowndb/internal/race"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	header := []string{"a", "b", "c"}
	rows := [][]string{
		{"1", "plain", "2.5"},
		{"2", "with,comma", "x"},
		{"3", `with"quote`, "y"},
		{"4", "with\nnewline", "z"},
		{"5", "", "empty-mid"},
	}
	data := Encode(header, rows)
	h2, r2, err := Decode(data, true)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(h2, header) {
		t.Errorf("header = %v", h2)
	}
	if !reflect.DeepEqual(r2, rows) {
		t.Errorf("rows = %v, want %v", r2, rows)
	}
}

func TestWriterOffsets(t *testing.T) {
	var sb strings.Builder
	w := NewWriter(&sb)
	f1, l1, err := w.WriteRow([]string{"ab", "cd"}) // "ab,cd\n" bytes 0..4
	if err != nil {
		t.Fatal(err)
	}
	if f1 != 0 || l1 != 4 {
		t.Errorf("row1 range = [%d,%d], want [0,4]", f1, l1)
	}
	f2, l2, _ := w.WriteRow([]string{"x"}) // starts at 6
	if f2 != 6 || l2 != 6 {
		t.Errorf("row2 range = [%d,%d], want [6,6]", f2, l2)
	}
	// The ranges must slice the raw bytes back to the row text.
	data := sb.String()
	if data[f1:l1+1] != "ab,cd" || data[f2:l2+1] != "x" {
		t.Errorf("slicing by range broken: %q, %q", data[f1:l1+1], data[f2:l2+1])
	}
}

func TestScannerRanges(t *testing.T) {
	data := Encode(nil, [][]string{{"aa", "bb"}, {"c,c", "d"}, {"e"}})
	sc := NewScanner(data)
	var got [][2]int64
	for sc.Scan() {
		a, b := sc.Range()
		got = append(got, [2]int64{a, b})
	}
	if sc.Err() != nil {
		t.Fatal(sc.Err())
	}
	if len(got) != 3 {
		t.Fatalf("rows = %d", len(got))
	}
	// Every range must slice to a parseable single row with same fields.
	_, rows, _ := Decode(data, false)
	for i, r := range got {
		frag := data[r[0] : r[1]+1]
		_, one, err := Decode(frag, false)
		if err != nil || len(one) != 1 {
			t.Fatalf("row %d fragment %q: %v", i, frag, err)
		}
		if !reflect.DeepEqual(one[0], rows[i]) {
			t.Errorf("row %d fragment fields = %v, want %v", i, one[0], rows[i])
		}
	}
}

func TestNoTrailingNewline(t *testing.T) {
	_, rows, err := Decode([]byte("a,b\nc,d"), false)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[1][0] != "c" || rows[1][1] != "d" {
		t.Errorf("rows = %v", rows)
	}
}

func TestCRLF(t *testing.T) {
	_, rows, err := Decode([]byte("a,b\r\nc,d\r\n"), false)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0][1] != "b" {
		t.Errorf("rows = %v", rows)
	}
}

func TestQuotedEdgeCases(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{`"a","b"` + "\n", []string{"a", "b"}},
		{`"a""b",c` + "\n", []string{`a"b`, "c"}},
		{`"",x` + "\n", []string{"", "x"}},
		{`a"b,c` + "\n", []string{`a"b`, "c"}}, // quote mid-field is literal
	}
	for _, c := range cases {
		_, rows, err := Decode([]byte(c.in), false)
		if err != nil {
			t.Fatalf("%q: %v", c.in, err)
		}
		if !reflect.DeepEqual(rows[0], c.want) {
			t.Errorf("Decode(%q) = %v, want %v", c.in, rows[0], c.want)
		}
	}
}

func TestUnterminatedQuote(t *testing.T) {
	sc := NewScanner([]byte(`"abc`))
	for sc.Scan() {
	}
	if sc.Err() == nil {
		t.Error("expected error for unterminated quote")
	}
}

func TestRowRanges(t *testing.T) {
	data := Encode([]string{"h1", "h2"}, [][]string{{"1", "2"}, {"3", "4"}})
	ranges, err := RowRanges(data, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranges) != 2 {
		t.Fatalf("ranges = %v", ranges)
	}
	if string(data[ranges[0][0]:ranges[0][1]+1]) != "1,2" {
		t.Errorf("first row slice = %q", data[ranges[0][0]:ranges[0][1]+1])
	}
	if string(data[ranges[1][0]:ranges[1][1]+1]) != "3,4" {
		t.Errorf("second row slice = %q", data[ranges[1][0]:ranges[1][1]+1])
	}
}

func TestEmptyInput(t *testing.T) {
	_, rows, err := Decode(nil, false)
	if err != nil || rows != nil {
		t.Errorf("empty input: %v %v", rows, err)
	}
}

// Property: encode/decode round trip for arbitrary field contents.
func TestQuickRoundTrip(t *testing.T) {
	f := func(a, b, c string) bool {
		// \r is normalized away by the scanner; exclude it from the property.
		clean := func(s string) string { return strings.ReplaceAll(s, "\r", "") }
		row := []string{clean(a), clean(b), clean(c)}
		data := Encode(nil, [][]string{row})
		_, rows, err := Decode(data, false)
		return err == nil && len(rows) == 1 && reflect.DeepEqual(rows[0], row)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: every row range slices to bytes that reparse to the same fields.
func TestQuickRangesSliceToRows(t *testing.T) {
	f := func(vals [][3]uint16) bool {
		if len(vals) == 0 {
			return true
		}
		var rows [][]string
		for _, v := range vals {
			rows = append(rows, []string{
				strings.Repeat("x", int(v[0]%7)),
				"q\"" + strings.Repeat(",", int(v[1]%3)),
				strings.Repeat("\n", int(v[2]%2)) + "z",
			})
		}
		data := Encode(nil, rows)
		ranges, err := RowRanges(data, false)
		if err != nil || len(ranges) != len(rows) {
			return false
		}
		for i, r := range ranges {
			_, one, err := Decode(data[r[0]:r[1]+1], false)
			if err != nil || len(one) != 1 || !reflect.DeepEqual(one[0], rows[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestScannerMatchesReference holds the view-based scanner to the per-byte
// reference on every corner of the dialect.
func TestScannerMatchesReference(t *testing.T) {
	cases := map[string]string{
		"plain":               "a,b,c\n1,2,3\n",
		"quoted commas":       "\"Smith, Al\",3\n\"x,y\",\"z\"\n",
		"doubled quotes":      "\"O\"\"Hara\",\"\"\"\",\"a\"\"\"\n",
		"embedded newlines":   "\"two\nlines\",x\n\"three\n\nlines\"\n",
		"CRLF":                "a,b\r\nc,d\r\n",
		"CRLF first row only": "\r\n\r\nx\r\n",
		"lone CR":             "a\rb,c\r,\rd\n\r\n",
		"CR in quotes":        "\"a\rb\",\"c\r\n\"\r\n",
		"empty fields":        ",,\na,,b\n,\n",
		"empty lines":         "\n\n\n",
		"empty trailing line": "a,b\n\n",
		"no trailing newline": "a,b\nc,d",
		"trailing CR no LF":   "a,b\r",
		"quote after data":    "ab\"cd,e\"\"f\n",
		"text after quote":    "\"ab\"cd,\"a\"b\"c\"\n",
		"CR before quote":     "\r\"q,r\",s\n",
		"empty quoted":        "\"\",\"\",x\n\"\"\n",
		"unterminated quote":  "a,b\nc,\"d\ne,f\n",
		"unterminated at EOF": "\"",
		"escape at EOF":       "\"a\"\"",
		"empty input":         "",
		"mixed":               "h1,h2\n1,plain\n2,\"q\"\"q\"\n3,plain again\n\"4\",\"x\ny\"\r\n5,z",
	}
	for name, in := range cases {
		if got, want := gotTrace([]byte(in)), refTrace([]byte(in)); got != want {
			t.Errorf("%s: %q\ngot:\n%s\nwant:\n%s", name, in, got, want)
		}
	}
}

// TestFieldsOutliveLaterScans pins the lifetime contract: fields stay
// valid across later Scans, unescaped ones included, and Decode's rows
// survive the payload being overwritten.
func TestFieldsOutliveLaterScans(t *testing.T) {
	var in strings.Builder
	var want []string
	for i := 0; i < 3000; i++ {
		fmt.Fprintf(&in, "p%d,\"q%d\",\"e\"\"%d\",c\r%d\n", i, i, i, i)
		want = append(want, fmt.Sprintf("p%d", i), fmt.Sprintf("q%d", i), fmt.Sprintf("e\"%d", i), fmt.Sprintf("c%d", i))
	}
	data := []byte(in.String())
	var kept []string
	sc := NewScanner(data)
	for sc.Scan() {
		kept = append(kept, sc.Fields()...)
	}
	if sc.Err() != nil || !reflect.DeepEqual(kept, want) {
		t.Fatalf("fields kept across scans changed (err %v)", sc.Err())
	}

	_, rows, err := Decode(data, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		data[i] = 'X'
	}
	for i, r := range rows {
		if !reflect.DeepEqual(r, want[4*i:4*i+4]) {
			t.Fatalf("Decode row %d = %q after the payload was overwritten, want %q", i, r, want[4*i:4*i+4])
		}
	}
}

// TestScanDoesNotAllocate pins the scanner's cost: no allocation per row,
// quoted or not, once the field slice and the unescape buffer have grown.
func TestScanDoesNotAllocate(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts differ under the race detector")
	}
	for name, row := range map[string]string{
		"unquoted": "1,1994-01-01,0.04,TRUCK,some words\n",
		"quoted":   "1,\"a,b\",\"c\"\"d\",e\r\n",
	} {
		data := []byte(strings.Repeat(row, 250))
		sc := NewScanner(data)
		sc.Scan()
		if n := testing.AllocsPerRun(200, func() {
			if !sc.Scan() || len(sc.Fields()) < 4 {
				t.Fatal("short scan")
			}
		}); n != 0 {
			t.Errorf("%s: Scan allocates %v times per row, want 0", name, n)
		}
	}
}

// TestNewScannerSizesItsFieldsOnce pins a new scanner's cost: its first row
// sizes the field slice once, from that row's commas, so a scanner over a
// 16-field payload allocates the slice and nothing more however many rows
// it splits (growing it by append cost 5 allocations first).
func TestNewScannerSizesItsFieldsOnce(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts differ under the race detector")
	}
	row := strings.TrimSuffix(strings.Repeat("12,", 16), ",") + "\n"
	data := []byte(strings.Repeat(row, 100))
	var sc Scanner
	if n := testing.AllocsPerRun(100, func() {
		sc = *NewScanner(data)
		for sc.Scan() {
			if len(sc.Fields()) != 16 {
				t.Fatal("short scan")
			}
		}
	}); n != 1 {
		t.Errorf("a new scanner over 100 rows of 16 fields allocates %v times, want 1", n)
	}
}
