package engine

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"pushdowndb/internal/colformat"
	"pushdowndb/internal/csvx"
	"pushdowndb/internal/race"
	"pushdowndb/internal/selectengine"
	"pushdowndb/internal/value"
	"pushdowndb/internal/vec"
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

// pastRawLen is a two-row object (k INT, s TEXT) whose compressed chunks
// each hold their cells and then a megabyte of zeros the footer's raw_len
// leaves out: a stream that runs on past the size the footer gives it.
func pastRawLen(t testing.TB) []byte {
	t.Helper()
	var data []byte
	var chunks []string
	for _, cells := range [][]byte{binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, 7), 8), []byte("\x01a\x01b")} {
		raw := append(append([]byte{2, 0, 0, 0, 0}, cells...), make([]byte, 1<<20)...)
		var z bytes.Buffer
		fw, _ := flate.NewWriter(&z, flate.BestSpeed)
		if _, err := fw.Write(raw); err != nil || fw.Close() != nil {
			t.Fatal(err)
		}
		chunks = append(chunks, fmt.Sprintf(`{"offset":%d,"len":%d,"raw_len":%d,"compressed":true,"has_stats":false}`, len(data), z.Len(), 5+len(cells)))
		data = append(data, z.Bytes()...)
	}
	footer := fmt.Sprintf(`{"version":1,"num_rows":2,"columns":[{"name":"k","kind":%d},{"name":"s","kind":%d}],"row_groups":[{"num_rows":2,"chunks":[%s]}]}`,
		value.KindInt, value.KindString, strings.Join(chunks, ","))
	data = append(data, footer...)
	data = binary.LittleEndian.AppendUint64(data, uint64(len(footer)))
	return append(data, colformat.Magic...)
}

// hostileObjects are footers that lie about their object. The first two
// panicked selectengine.Execute (its row read indexing past a 2-row chunk;
// skipGroup's ChunkStats indexing a chunk the group does not have) and
// nothing in the process recovers; the third sizes the inflate buffer, so
// it must be refused before a byte is allocated for it; the fourth's chunks
// must be refused at their raw_len, not inflated to their end.
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
		{"compressed chunks inflate a megabyte past raw_len", pastRawLen(t)},
	}
}

// TestChunkPastRawLenIsNotInflated: a chunk is read up to its footer's
// raw_len and one byte more, so a stream that runs on past it costs what
// raw_len says, not the megabyte it inflates to.
func TestChunkPastRawLenIsNotInflated(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation sizes differ under the race detector")
	}
	r, err := colformat.Open(pastRawLen(t))
	if err != nil {
		t.Fatal(err)
	}
	for col := 0; col < 2; col++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, _, err := r.ReadColumn(0, col); err == nil {
			t.Errorf("column %d: ReadColumn decoded a chunk that runs past its raw_len", col)
		}
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > 128<<10 {
			t.Errorf("column %d: refusing the chunk allocated %d bytes, want at most %d", col, got, 128<<10)
		}
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
		if rel, err := loadObject(h.data, nil); err == nil {
			t.Errorf("%s: fromColumnar returned %d rows, want an error", h.name, len(rel.Rows))
		}
	}
}

// TestFromColumnarMatchesSelectStar: the GET-side decoder and the storage
// side's scan read the same chunks through the same typed reader; their
// rows must agree, and the loaded rows must be append-safe windows. Both
// decode each column's row groups into one vector, so the second object's
// groups differ in every way a reused vector could carry over: NULLs after
// a group without, an all-NULL chunk between typed ones, a short last group,
// and MIN/MAX and group keys whose strings come from the first group — the
// aggregates must answer as over the same rows as CSV.
func TestFromColumnarMatchesSelectStar(t *testing.T) {
	schema := colformat.Schema{{Name: "k", Kind: value.KindInt}, {Name: "f", Kind: value.KindFloat},
		{Name: "s", Kind: value.KindString}, {Name: "d", Kind: value.KindDate}}
	var rotating, ragged [][]value.Value
	for i := 0; i < 100; i++ {
		row := []value.Value{value.Int(int64(i)), value.Float(float64(i) / 4), value.Str(strings.Repeat("x", i%5)), value.Date(int64(9000 + i))}
		row[i%4] = value.Null()
		rotating = append(rotating, row)
	}
	// Row groups of 4, the last of 2; MIN(s) and MAX(s) are in the first.
	for i, s := range []string{"aaa", "zzz", "mmm", "nnn", "b", "c", "", "d", "e", "c", "f", "b", "g", "h"} {
		row := []value.Value{value.Int(int64(i)), value.Float(float64(i) + 0.5), value.Str(s), value.Date(int64(9000 + i))}
		if s == "" {
			row[2] = value.Null()
		}
		if i >= 4 && i < 8 && i%2 == 0 { // NULLs after a group without
			row[0], row[3] = value.Null(), value.Null()
		}
		if i >= 8 && i < 12 { // an all-NULL chunk between typed ones
			row[1] = value.Null()
		}
		ragged = append(ragged, row)
	}
	for _, compress := range []bool{false, true} {
		for _, obj := range []struct {
			rows      [][]value.Value
			groupRows int
			asCSV     bool // false: CSV would read its empty strings as NULL
		}{{rotating, 16, false}, {ragged, 4, true}} {
			data, err := colformat.Encode(schema, obj.rows, obj.groupRows, compress)
			if err != nil {
				t.Fatal(err)
			}
			res, err := selectengine.Execute(data, selectengine.Request{SQL: "SELECT * FROM S3Object"})
			if err != nil {
				t.Fatal(err)
			}
			rel, err := loadObject(data, nil)
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
				t.Fatalf("compress=%v: fromColumnar and SELECT * disagree:\n got %v %v\nwant %v %v",
					compress, rel.Cols, got, res.Columns, want)
			}
			checkRowsDoNotAlias(t, rel)
			if !obj.asCSV {
				continue
			}
			cells := make([][]string, len(obj.rows))
			for i, row := range obj.rows {
				for _, v := range row {
					if v.IsNull() {
						cells[i] = append(cells[i], "")
					} else {
						cells[i] = append(cells[i], v.String())
					}
				}
			}
			csv := csvx.Encode(schema.Names(), cells)
			for _, sql := range []string{"SELECT MIN(s), MAX(s) FROM S3Object", "SELECT s, COUNT(*) FROM S3Object GROUP BY s"} {
				req := selectengine.Request{SQL: sql, HasHeader: true, Capabilities: selectengine.Capabilities{AllowGroupBy: true}}
				fromCol, err := selectengine.Execute(data, req)
				if err != nil {
					t.Fatal(err)
				}
				fromCSV, err := selectengine.Execute(csv, req)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := recordsOf(t, fromCol), recordsOf(t, fromCSV); !reflect.DeepEqual(got, want) {
					t.Errorf("compress=%v, %d-row groups, %s: columnar %q, CSV %q", compress, obj.groupRows, sql, got, want)
				}
			}
		}
	}
}

// FuzzColformatRead feeds arbitrary bytes to everything that reads a
// colformat object: Open and every accessor, ReadColumn of every chunk,
// the storage side's scan (with a WHERE, so row-group skipping runs) and
// the GET side's fromColumnar. Every chunk is decoded twice, fresh and into
// the vector the previous chunk was decoded into, and must read alike.
// Errors are fine; a panic is a finding, and so is an input that makes the
// readers allocate more than 64 MiB.
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
			var reused *vec.Vector // last decoded into for another chunk
			for g := 0; g < r.NumRowGroups(); g++ {
				rows := r.GroupRows(g)
				for c := range r.Schema() {
					_ = r.ChunkRawLen(g, c)
					_, _, _ = r.ChunkStats(g, c)
					v, _, err := r.ReadColumn(g, c)
					if err != nil {
						continue
					}
					if v.Len() != rows {
						t.Fatalf("chunk (%d,%d) decoded %d rows in a %d-row group", g, c, v.Len(), rows)
					}
					if reused, _, err = r.ReadColumn(g, c, reused); err != nil {
						t.Fatalf("chunk (%d,%d) decodes fresh but not into a used vector: %v", g, c, err)
					}
					for i := 0; i < v.Len(); i++ {
						if fresh, into := v.Value(i), reused.Value(i); fresh != into || reused.Len() != rows {
							t.Fatalf("chunk (%d,%d) row %d: fresh %s %q, into a used vector %s %q", g, c, i, fresh.Kind(), fresh, into.Kind(), into)
						}
						_ = v.Value(i).String()
					}
				}
			}
		}
		for _, sql := range []string{"SELECT * FROM S3Object WHERE s > 'a'", "SELECT COUNT(*), MAX(s) FROM S3Object WHERE k <> 7"} {
			_, _ = selectengine.Execute(data, selectengine.Request{SQL: sql})
		}
		// One worker, so it runs inline: goroutines make coverage flicker.
		if rel, err := loadObject(data, nil); err == nil {
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
