package colformat

import (
	"slices"
	"testing"
	"testing/quick"

	"pushdowndb/internal/value"
	"pushdowndb/internal/vec"
)

var testSchema = Schema{
	{Name: "id", Kind: value.KindInt},
	{Name: "price", Kind: value.KindFloat},
	{Name: "name", Kind: value.KindString},
	{Name: "day", Kind: value.KindDate},
}

func sampleRows(n int) [][]value.Value {
	rows := make([][]value.Value, n)
	for i := range rows {
		rows[i] = []value.Value{
			value.Int(int64(i)),
			value.Float(float64(i) * 1.5),
			value.Str("name-" + value.Int(int64(i)).String()),
			value.Date(int64(8000 + i)),
		}
	}
	return rows
}

func roundTrip(t *testing.T, rows [][]value.Value, groupRows int, compress bool) *Reader {
	t.Helper()
	data, err := Encode(testSchema, rows, groupRows, compress)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Open(data)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func readAll(t *testing.T, r *Reader, col int) []value.Value {
	t.Helper()
	var out []value.Value
	for g := 0; g < r.NumRowGroups(); g++ {
		v, _, err := r.ReadColumn(g, col)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, values(v)...)
	}
	return out
}

// values boxes a decoded chunk, for the tests that compare cell by cell.
func values(v *vec.Vector) []value.Value {
	out := make([]value.Value, v.Len())
	for i := range out {
		out[i] = v.Value(i)
	}
	return out
}

func TestRoundTrip(t *testing.T) {
	rows := sampleRows(100)
	for _, compress := range []bool{false, true} {
		r := roundTrip(t, rows, 16, compress)
		if r.NumRows() != 100 {
			t.Fatalf("NumRows = %d", r.NumRows())
		}
		if r.NumRowGroups() != 7 { // ceil(100/16)
			t.Fatalf("groups = %d", r.NumRowGroups())
		}
		for ci := range testSchema {
			got := readAll(t, r, ci)
			if len(got) != 100 {
				t.Fatalf("col %d len = %d", ci, len(got))
			}
			for i := range got {
				if value.Compare(got[i], rows[i][ci]) != 0 {
					t.Fatalf("col %d row %d = %v, want %v (compress=%v)",
						ci, i, got[i], rows[i][ci], compress)
				}
			}
		}
	}
}

func TestNulls(t *testing.T) {
	rows := [][]value.Value{
		{value.Int(1), value.Null(), value.Str("a"), value.Null()},
		{value.Null(), value.Float(2), value.Null(), value.Date(10)},
	}
	r := roundTrip(t, rows, 0, false)
	for ci := range testSchema {
		got := readAll(t, r, ci)
		for i := range rows {
			if got[i].IsNull() != rows[i][ci].IsNull() {
				t.Errorf("col %d row %d nullness mismatch", ci, i)
			}
		}
	}
}

func TestStats(t *testing.T) {
	rows := sampleRows(50)
	r := roundTrip(t, rows, 0, false)
	mn, mx, ok := r.ChunkStats(0, 0)
	if !ok || mn.AsInt() != 0 || mx.AsInt() != 49 {
		t.Errorf("id stats = %v..%v ok=%v", mn, mx, ok)
	}
	mn, mx, ok = r.ChunkStats(0, 1)
	if !ok || mn.AsFloat() != 0 || mx.AsFloat() != 49*1.5 {
		t.Errorf("price stats = %v..%v ok=%v", mn, mx, ok)
	}
	mn, mx, ok = r.ChunkStats(0, 3)
	if !ok || mn.Kind() != value.KindDate || mn.Days() != 8000 {
		t.Errorf("date stats = %v ok=%v kind=%v", mn, ok, mn.Kind())
	}

	// All-null column has no stats.
	nullRows := [][]value.Value{{value.Null(), value.Null(), value.Null(), value.Null()}}
	r2 := roundTrip(t, nullRows, 0, false)
	if _, _, ok := r2.ChunkStats(0, 0); ok {
		t.Error("all-null chunk should have no stats")
	}
}

func TestSchemaRoundTrip(t *testing.T) {
	r := roundTrip(t, sampleRows(1), 0, false)
	if !slices.Equal(r.Schema(), testSchema) {
		t.Errorf("schema %v, want %v", r.Schema(), testSchema)
	}
}

func TestCompressionShrinks(t *testing.T) {
	// Highly repetitive data must compress.
	rows := make([][]value.Value, 2000)
	for i := range rows {
		rows[i] = []value.Value{value.Int(7), value.Float(1), value.Str("constant"), value.Date(1)}
	}
	raw, _ := Encode(testSchema, rows, 0, false)
	comp, _ := Encode(testSchema, rows, 0, true)
	if len(comp) >= len(raw) {
		t.Errorf("compressed %d >= raw %d", len(comp), len(raw))
	}
	// And still round trips.
	r, err := Open(comp)
	if err != nil {
		t.Fatal(err)
	}
	got := readAll(t, r, 2)
	if got[1999].AsString() != "constant" {
		t.Error("compressed round trip broken")
	}
}

func TestBytesReadPerColumn(t *testing.T) {
	rows := sampleRows(1000)
	r := roundTrip(t, rows, 0, false)
	_, idBytes, err := r.ReadColumn(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Reading one column should cost roughly 1/N of the data region, far
	// less than the whole object: the column-pruning effect of Fig. 11.
	if idBytes <= 0 || idBytes > int64(8*1000+4+125+64) {
		t.Errorf("id column bytes = %d", idBytes)
	}
}

func TestOpenErrors(t *testing.T) {
	if _, err := Open(nil); err == nil {
		t.Error("nil object should fail")
	}
	if _, err := Open([]byte("definitely not columnar")); err == nil {
		t.Error("bad magic should fail")
	}
	good, _ := Encode(testSchema, sampleRows(2), 0, false)
	// Corrupt the footer length.
	bad := append([]byte{}, good...)
	bad[len(bad)-6] = 0xFF
	if _, err := Open(bad); err == nil {
		t.Error("corrupt footer length should fail")
	}
	if IsColumnar([]byte("x")) {
		t.Error("IsColumnar false positive")
	}
	if !IsColumnar(good) {
		t.Error("IsColumnar false negative")
	}
}

func TestReadColumnBounds(t *testing.T) {
	r := roundTrip(t, sampleRows(3), 0, false)
	if _, _, err := r.ReadColumn(5, 0); err == nil {
		t.Error("bad group should error")
	}
	if _, _, err := r.ReadColumn(0, 99); err == nil {
		t.Error("bad column should error")
	}
}

func TestSchemaMismatch(t *testing.T) {
	w := NewWriter(testSchema, 0, false)
	if err := w.Append([]value.Value{value.Int(1)}); err == nil {
		t.Error("short row should error")
	}
	// A string cannot enter an INT column.
	if err := w.Append([]value.Value{value.Str("xx"), value.Float(1), value.Str("a"), value.Date(1)}); err == nil {
		t.Error("uncastable value should error")
	}
	// But an int can enter a FLOAT column.
	if err := w.Append([]value.Value{value.Int(1), value.Int(2), value.Str("a"), value.Date(1)}); err != nil {
		t.Errorf("int into float column: %v", err)
	}
}

// Property: round trip preserves int and float columns exactly.
func TestQuickRoundTrip(t *testing.T) {
	schema := Schema{{Name: "i", Kind: value.KindInt}, {Name: "f", Kind: value.KindFloat}}
	f := func(is []int64, fs []float64) bool {
		n := len(is)
		if len(fs) < n {
			n = len(fs)
		}
		if n == 0 {
			return true
		}
		rows := make([][]value.Value, n)
		for i := 0; i < n; i++ {
			rows[i] = []value.Value{value.Int(is[i]), value.Float(fs[i])}
		}
		data, err := Encode(schema, rows, 3, true)
		if err != nil {
			return false
		}
		r, err := Open(data)
		if err != nil || r.NumRows() != int64(n) {
			return false
		}
		var gotI, gotF []value.Value
		for g := 0; g < r.NumRowGroups(); g++ {
			vi, _, err1 := r.ReadColumn(g, 0)
			vf, _, err2 := r.ReadColumn(g, 1)
			if err1 != nil || err2 != nil {
				return false
			}
			gotI = append(gotI, values(vi)...)
			gotF = append(gotF, values(vf)...)
		}
		for i := 0; i < n; i++ {
			if gotI[i].AsInt() != is[i] {
				return false
			}
			gf := gotF[i].AsFloat()
			if gf != fs[i] && !(gf != gf && fs[i] != fs[i]) { // NaN-safe
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
