package colformat

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"pushdowndb/internal/race"
	"pushdowndb/internal/value"
)

// Property: for every chunk of a table of all four kinds with NULLs
// anywhere, the typed reader lays out exactly the vector FromValues builds
// from what the boxed reader decoded.
func TestQuickTypedMatchesReference(t *testing.T) {
	f := func(is []int64, fs []float64, ss []string, nulls []uint8, groupRows uint8, compress bool) bool {
		n := min(len(is), len(fs), len(ss), len(nulls))
		rows := make([][]value.Value, n)
		for i := range rows {
			rows[i] = []value.Value{value.Int(is[i]), value.Float(fs[i]), value.Str(ss[i]), value.Date(is[i] % 20000)}
			for c := range rows[i] {
				if nulls[i]&(1<<c) != 0 {
					rows[i][c] = value.Null()
				}
			}
		}
		data, err := Encode(testSchema, rows, int(groupRows%7), compress)
		if err != nil {
			t.Log(err)
			return false
		}
		r, err := Open(data)
		if err != nil {
			t.Log(err)
			return false
		}
		for g := 0; g < r.NumRowGroups(); g++ {
			for c := range testSchema {
				got, _, err := r.ReadColumn(g, c)
				ref, refErr := ReferenceReadColumn(r, g, c)
				if err != nil || refErr != nil {
					t.Log(err, refErr)
					return false
				}
				if d := DiffReference(got, ref); d != "" {
					t.Logf("chunk (%d,%d): %s", g, c, d)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestWriterReuseIsByteIdentical holds the one-compressor-per-Writer
// encoding to the compressor-per-chunk one it replaced: every compressed
// chunk of a many-group object is, byte for byte, what a fresh BestSpeed
// writer makes of the chunk's raw bytes, and chunks sit back to back.
func TestWriterReuseIsByteIdentical(t *testing.T) {
	data, err := Encode(testSchema, sampleRows(5000), 300, true)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Open(data)
	if err != nil {
		t.Fatal(err)
	}
	var next int64
	compressed := 0
	for g, gm := range r.meta.RowGroups {
		for c, cm := range gm.Chunks {
			if cm.Offset != next {
				t.Fatalf("chunk (%d,%d) at %d, previous ended at %d", g, c, cm.Offset, next)
			}
			next = cm.Offset + cm.Len
			if !cm.Compressed {
				continue
			}
			compressed++
			raw, err := io.ReadAll(flate.NewReader(bytes.NewReader(data[cm.Offset:next])))
			if err != nil || int64(len(raw)) != cm.RawLen {
				t.Fatalf("chunk (%d,%d) inflates to %d bytes, footer says %d (%v)", g, c, len(raw), cm.RawLen, err)
			}
			var fresh bytes.Buffer
			fw, _ := flate.NewWriter(&fresh, flate.BestSpeed)
			fw.Write(raw)
			fw.Close()
			if !bytes.Equal(fresh.Bytes(), data[cm.Offset:next]) {
				t.Fatalf("chunk (%d,%d): the reused compressor's %d bytes differ from a fresh one's %d", g, c, cm.Len, fresh.Len())
			}
		}
	}
	if compressed < 30 {
		t.Fatalf("only %d compressed chunks; the test needs a reused compressor", compressed)
	}
}

// withFooter re-encodes data with its footer edited.
func withFooter(t *testing.T, data []byte, edit func(*footer)) []byte {
	t.Helper()
	tail := len(Magic) + 8
	fl := int(binary.LittleEndian.Uint64(data[len(data)-tail:]))
	var f footer
	if err := json.Unmarshal(data[len(data)-tail-fl:len(data)-tail], &f); err != nil {
		t.Fatal(err)
	}
	edit(&f)
	fj, err := json.Marshal(&f)
	if err != nil {
		t.Fatal(err)
	}
	out := append([]byte{}, data[:len(data)-tail-fl]...)
	out = append(out, fj...)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(fj)))
	return append(out, Magic...)
}

// TestOpenRejectsLyingFooter: everything a reader later indexes or sizes an
// allocation by is checked once, in Open. The first two objects crashed
// selectengine.Execute before (index out of range in its row read and in
// ChunkStats); a chunk whose own row count disagrees with a self-consistent
// footer is ReadColumn's to refuse.
func TestOpenRejectsLyingFooter(t *testing.T) {
	for _, compress := range []bool{false, true} {
		good, err := Encode(testSchema, sampleRows(40), 16, compress)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Open(withFooter(t, good, func(*footer) {})); err != nil {
			t.Fatalf("unedited footer: %v", err)
		}
		for name, edit := range map[string]func(*footer){
			"group rows beyond its chunks":  func(f *footer) { f.RowGroups[2].NumRows = 9 },
			"fewer chunks than columns":     func(f *footer) { f.RowGroups[1].Chunks = f.RowGroups[1].Chunks[:2] },
			"negative group rows":           func(f *footer) { f.RowGroups[0].NumRows = -16; f.NumRows -= 32 },
			"rows do not add up":            func(f *footer) { f.NumRows++ },
			"chunk past the data":           func(f *footer) { f.RowGroups[2].Chunks[3].Len += 1 << 20 },
			"chunk offset negative":         func(f *footer) { f.RowGroups[0].Chunks[0].Offset = -1 },
			"chunk range overflows":         func(f *footer) { f.RowGroups[0].Chunks[0].Len = math.MaxInt64 },
			"chunk too small for its group": func(f *footer) { f.RowGroups[0].NumRows, f.NumRows = 1<<40, f.NumRows-16+1<<40 },
			"raw size beyond deflate's reach": func(f *footer) {
				cm := &f.RowGroups[0].Chunks[2]
				cm.Compressed, cm.RawLen = true, 1032*cm.Len+65
			},
			"raw size negative": func(f *footer) {
				cm := &f.RowGroups[0].Chunks[2]
				cm.Compressed, cm.RawLen = true, -1
			},
		} {
			if _, err := Open(withFooter(t, good, edit)); err == nil {
				t.Errorf("compress=%v, %s: Open accepted the object", compress, name)
			}
		}

		// Self-consistent footers over chunks that disagree with them.
		for name, edit := range map[string]func(*footer){
			"every count says 9 rows": func(f *footer) {
				f.RowGroups, f.NumRows = f.RowGroups[2:], 9
				f.RowGroups[0].NumRows = 9
			},
			"raw size one short": func(f *footer) { f.RowGroups[0].Chunks[2].RawLen-- },
			"raw size one over":  func(f *footer) { f.RowGroups[0].Chunks[2].RawLen++ },
		} {
			r, err := Open(withFooter(t, good, edit))
			if err != nil {
				continue // refused earlier still
			}
			if !compress && strings.HasPrefix(name, "raw size") {
				continue // a stored chunk has no raw size to lie about
			}
			if _, _, err := r.ReadColumn(0, 2); err == nil {
				t.Errorf("compress=%v, %s: ReadColumn decoded the chunk", compress, name)
			}
		}
	}
}

// TestReadColumnAllocatesPerChunk pins what a chunk costs decoded into a
// warm vector, as a scan reads every row group after its first: a numeric
// chunk allocates neither its payload nor an inflate buffer (8 bytes a cell
// each; what is left is flate's own Huffman tables), and a string chunk its
// one text, the size of its body, however many cells there are.
func TestReadColumnAllocatesPerChunk(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation sizes differ under the race detector")
	}
	// One P, as in testing.AllocsPerRun: the pooled reader a decode Puts is
	// private to its P, so a goroutine moved to another would make a new one.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 20
	for _, rows := range []int{60, 6000} {
		for _, compress := range []bool{false, true} {
			r := roundTrip(t, sampleRows(rows), 0, compress)
			for c, def := range testSchema {
				dst, _, err := r.ReadColumn(0, c)
				if err != nil {
					t.Fatal(err)
				}
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for i := 0; i < runs; i++ {
					if _, _, err := r.ReadColumn(0, c, dst); err != nil {
						t.Fatal(err)
					}
				}
				runtime.ReadMemStats(&after)
				got, want := (after.TotalAlloc-before.TotalAlloc)/runs, uint64(4*rows)
				if def.Kind == value.KindString {
					raw := uint64(r.meta.RowGroups[0].Chunks[c].RawLen)
					want = raw + raw/4 + 4<<10
				}
				if got > want {
					t.Errorf("a %d-row %s chunk (compress=%v) into a warm vector allocates %d bytes, want at most %d",
						rows, def.Kind, compress, got, want)
				}
			}
		}
	}
}
