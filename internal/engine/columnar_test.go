package engine

import (
	"encoding/binary"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"pushdowndb/internal/colformat"
	"pushdowndb/internal/selectengine"
	"pushdowndb/internal/value"
)

// twoRows is a small two-column colformat object whose footer the tests
// below rewrite.
func twoRows(t testing.TB, compress bool) []byte {
	t.Helper()
	rows := [][]value.Value{
		{value.Int(7), value.Str(strings.Repeat("seven ", 20))},
		{value.Int(8), value.Str(strings.Repeat("eight ", 20))},
	}
	data, err := colformat.Encode(colformat.Schema{{Name: "k", Kind: value.KindInt}, {Name: "s", Kind: value.KindString}}, rows, 0, compress)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// rewriteFooter replaces every match of pattern in the JSON footer of a
// colformat object and fixes up the footer length behind it.
func rewriteFooter(t testing.TB, data []byte, pattern, repl string) []byte {
	t.Helper()
	tail := len(colformat.Magic) + 8
	fl := int(binary.LittleEndian.Uint64(data[len(data)-tail:]))
	footer := data[len(data)-tail-fl : len(data)-tail]
	re := regexp.MustCompile(pattern)
	if !re.Match(footer) {
		t.Fatalf("footer %s has no match for %s", footer, pattern)
	}
	footer = re.ReplaceAll(footer, []byte(repl))
	out := append([]byte{}, data[:len(data)-tail-fl]...)
	out = append(out, footer...)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(footer)))
	return append(out, colformat.Magic...)
}

// hostileObjects are footers that lie about their object. The first two
// panicked selectengine.Execute (colEnv.Lookup indexing past a 2-row chunk;
// skipGroup's ChunkStats indexing a chunk the group does not have) and
// nothing in the process recovers; the third sizes the inflate buffer, so
// it must be refused before a byte is allocated for it.
func hostileObjects(t testing.TB) []struct {
	name string
	data []byte
} {
	return []struct {
		name string
		data []byte
	}{
		{"row group claims 9 rows over a 2-row chunk", rewriteFooter(t, twoRows(t, false), `"num_rows":2`, `"num_rows":9`)},
		{"row group has fewer chunks than columns", rewriteFooter(t, twoRows(t, false), `,\{"offset":[1-9][^}]*\}`, "")},
		{"compressed chunk claims a terabyte raw", rewriteFooter(t, twoRows(t, true), `"raw_len":\d+,"compressed":true`, `"raw_len":1099511627776,"compressed":true`)},
	}
}

func TestHostileColumnarObjectsAreErrors(t *testing.T) {
	for _, h := range hostileObjects(t) {
		if res, err := selectengine.Execute(h.data, selectengine.Request{SQL: "SELECT k, s FROM S3Object WHERE s > 'a'"}); err == nil {
			t.Errorf("%s: Execute returned %q, want an error", h.name, res.Body)
		}
		// No chunk is read for this one, so a self-consistent footer is
		// believed; it must still not crash.
		_, _ = selectengine.Execute(h.data, selectengine.Request{SQL: "SELECT COUNT(*) FROM S3Object"})
		if rel, err := fromColumnar(h.data, 2, nil); err == nil {
			t.Errorf("%s: fromColumnar returned %d rows, want an error", h.name, len(rel.Rows))
		}
	}
}

// TestFromColumnarMatchesSelectStar: the GET-side decoder and the storage
// side's scan read the same chunks through the same typed reader; their
// rows must agree, and the loaded rows must be append-safe windows.
func TestFromColumnarMatchesSelectStar(t *testing.T) {
	schema := colformat.Schema{{Name: "k", Kind: value.KindInt}, {Name: "f", Kind: value.KindFloat},
		{Name: "s", Kind: value.KindString}, {Name: "d", Kind: value.KindDate}}
	var rows [][]value.Value
	for i := 0; i < 100; i++ {
		row := []value.Value{value.Int(int64(i)), value.Float(float64(i) / 4), value.Str(strings.Repeat("x", i%5)), value.Date(int64(9000 + i))}
		row[i%4] = value.Null()
		rows = append(rows, row)
	}
	for _, compress := range []bool{false, true} {
		data, err := colformat.Encode(schema, rows, 16, compress)
		if err != nil {
			t.Fatal(err)
		}
		res, err := selectengine.Execute(data, selectengine.Request{SQL: "SELECT * FROM S3Object"})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 3} {
			rel, err := fromColumnar(data, workers, nil)
			if err != nil {
				t.Fatal(err)
			}
			got := make([][]string, len(rel.Rows))
			for i, row := range rel.Rows {
				for _, v := range row {
					got[i] = append(got[i], v.String())
				}
			}
			if want := recordsOf(t, res); !reflect.DeepEqual(rel.Cols, res.Columns) || !reflect.DeepEqual(got, want) {
				t.Fatalf("compress=%v workers=%d: fromColumnar and SELECT * disagree:\n got %v %v\nwant %v %v",
					compress, workers, rel.Cols, got, res.Columns, want)
			}
			checkRowsDoNotAlias(t, rel)
		}
	}
}

// FuzzColformatRead feeds arbitrary bytes to everything that reads a
// colformat object: Open and every accessor, ReadColumn of every chunk,
// the storage side's scan (with a WHERE, so row-group skipping runs) and
// the GET side's fromColumnar. Errors are fine; a panic is a finding, and
// so is an input that makes the readers allocate more than 64 MiB.
func FuzzColformatRead(f *testing.F) {
	for _, h := range hostileObjects(f) {
		f.Add(h.data)
	}
	f.Add(twoRows(f, false))
	f.Add(twoRows(f, true))
	f.Add([]byte{0x00, 0xff, 'P', 'C', 'O', 'L', '1'})
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if r, err := colformat.Open(data); err == nil {
			_ = r.NumRows()
			for g := 0; g < r.NumRowGroups(); g++ {
				rows := r.GroupRows(g)
				for c := range r.Schema() {
					_ = r.ChunkRawLen(g, c)
					_, _, _ = r.ChunkStats(g, c)
					if v, _, err := r.ReadColumn(g, c); err == nil {
						if v.Len() != rows {
							t.Fatalf("chunk (%d,%d) decoded %d rows in a %d-row group", g, c, v.Len(), rows)
						}
						for i := 0; i < v.Len(); i++ {
							_ = v.Value(i).String()
						}
					}
				}
			}
		}
		for _, sql := range []string{"SELECT * FROM S3Object WHERE s > 'a'", "SELECT COUNT(*), MAX(s) FROM S3Object WHERE k <> 7"} {
			_, _ = selectengine.Execute(data, selectengine.Request{SQL: sql})
		}
		// One worker, so it runs inline: goroutines make coverage flicker.
		if rel, err := fromColumnar(data, 1, nil); err == nil {
			for _, row := range rel.Rows {
				if len(row) != len(rel.Cols) {
					t.Fatalf("a %d-cell row under %d columns", len(row), len(rel.Cols))
				}
			}
		}
		runtime.ReadMemStats(&after)
		if mb := (after.TotalAlloc - before.TotalAlloc) >> 20; mb > 64 {
			t.Fatalf("reading a %d-byte object allocated %d MiB", len(data), mb)
		}
	})
}
