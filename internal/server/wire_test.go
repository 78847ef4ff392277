package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"pushdowndb/internal/engine"
	"pushdowndb/internal/race"
	"pushdowndb/internal/s3api"
	"pushdowndb/internal/store"
	"pushdowndb/internal/value"
)

// wireTable is every shape of cell and row the codec must carry exactly.
func wireTable() []wireRows {
	var controls strings.Builder
	for c := 0; c < 0x20; c++ {
		controls.WriteByte(byte(c))
	}
	cells := engine.Row{
		value.Null(), value.Bool(true), value.Bool(false),
		value.Int(0), value.Int(-7), value.Int(math.MaxInt64), value.Int(math.MinInt64), value.Int(1<<53 + 1),
		value.Float(0), value.Float(math.Copysign(0, -1)), value.Float(2), value.Float(0.1),
		value.Float(5e-324), value.Float(1e21), value.Float(-1e-7), value.Float(math.MaxFloat64),
		value.Float(1<<53 + 2), value.Float(math.NaN()), value.Float(math.Inf(1)), value.Float(math.Inf(-1)),
		value.Date(9568), value.Date(0), value.Date(-719162),
		value.Str(""), value.Str("s"), value.Str("d9568"), value.Str("fNaN"), value.Str("f+Inf"), value.Str("null"),
		value.Str(`x,"y"`), value.Str(`\`), value.Str(`\\u0041\"`), value.Str(controls.String()), value.Str("\x7f"),
		value.Str("<b>&amp;</b>"), value.Str("\u2028 \u2029"), value.Str("\xe2\x80"), value.Str("\xff\xfe"),
		value.Str("caf\xe9 \xed\xa0\x80"), value.Str("日本語 \U0001F600"), value.Str(strings.Repeat("long ", 40)),
	}
	table := []wireRows{nil, {}, {{}}, {{}, {}, {}}, {cells}, {{}, cells[:7], {}, cells[7:]}}
	for _, v := range cells {
		table = append(table, wireRows{{v}})
	}
	return table
}

// TestRelationWireRoundTrip pins the bytes a relation rides the wire as —
// MarshalJSON's, then encoding/json's escapes over them — that the decoded
// rows, windows of shared arrays, cannot be grown into one another, and that
// every value of wireTable decodes to the identical value, through
// MarshalJSON alone and through encoding/json.
func TestRelationWireRoundTrip(t *testing.T) {
	rel := &engine.Relation{Cols: []string{"a", "b", "c"}, Rows: []engine.Row{
		{value.Int(-7), value.Str("x,\"y\""), value.Null()},
		{value.Float(0.1), value.Date(9568), value.Bool(true)},
		{},
		{value.Float(math.Inf(-1)), value.Str(""), value.Bool(false)},
		{value.Float(2), value.Str("<&>\u2028\xff\n"), value.Float(1e21)},
	}}
	got, err := json.Marshal(queryResponse{Columns: rel.Cols, Rows: rel.Rows})
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"columns":["a","b","c"],"rows":[` +
		`[-7,"sx,\"y\"",null],` +
		`[0.1,"d9568",true],` +
		`[],` +
		`["f-Inf","s",false],` +
		`[2.0,"s\u003c\u0026\u003e\u2028` + "\xff" + `\u000a",1e+21]],` +
		`"runtime_sec":0,"cost":` + `{`
	if len(got) < len(want) || string(got[:len(want)]) != want {
		t.Errorf("wire bytes changed:\n got %s\nwant %s…", got, want)
	}

	var qr queryResponse
	if err := json.Unmarshal(got, &qr); err != nil {
		t.Fatal(err)
	}
	back := []engine.Row(qr.Rows)
	if !reflect.DeepEqual(back, rel.Rows) {
		t.Errorf("decoded %v, sent %v", back, rel.Rows)
	}
	for i := 0; i+1 < len(back); i++ {
		next := append(engine.Row{}, back[i+1]...)
		_ = append(back[i], value.Str("overflow"))
		if !reflect.DeepEqual(back[i+1], next) {
			t.Fatalf("append to row %d rewrote row %d", i, i+1)
		}
	}

	for _, rows := range wireTable() {
		direct, err := rows.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		viaJSON, err := json.Marshal(rows)
		if err != nil {
			t.Fatal(err)
		}
		for _, body := range [][]byte{direct, viaJSON} {
			if !json.Valid(body) {
				t.Errorf("%q is not JSON", body)
			}
			var back wireRows
			if err := back.UnmarshalJSON(body); err != nil {
				t.Errorf("%q: %v", body, err)
				continue
			}
			if back == nil || len(back) != len(rows) {
				t.Errorf("%q decoded to %d rows (nil: %v), want %d", body, len(back), back == nil, len(rows))
				continue
			}
			for i := range rows {
				if back[i] == nil || !reflect.DeepEqual(append(engine.Row{}, rows[i]...), append(engine.Row{}, back[i]...)) {
					t.Errorf("%q: row %d decoded to %#v, sent %#v", body, i, back[i], rows[i])
				}
			}
		}
	}
	// Escapes MarshalJSON does not write but JSON allows.
	var escaped wireRows
	if err := escaped.UnmarshalJSON([]byte(`[["s\/\b\f\n\r\t\ud83d\ude00\ufffd\u0041"]]`)); err != nil ||
		!reflect.DeepEqual(escaped, wireRows{{value.Str("/\b\f\n\r\t\U0001F600\ufffdA")}}) {
		t.Errorf("escapes decoded to %#v, %v", escaped, err)
	}
}

// TestWireDecodeIsStrict: a body MarshalJSON could not have written is an
// error, whether or not it is JSON.
func TestWireDecodeIsStrict(t *testing.T) {
	for _, body := range []string{
		``, ` `, `null`, `{}`, `[`, `[[`, `[[]`, `[[1]`, `[[1,]]`, `[[,1]]`, `[[1],]`, `[1]`, `["s"]`, `[[[]]]`, `[[{}]]`,
		`[[1]] x`, `[[1]] `, ` [[1]]`, `[ [1]]`, `[[1 ]]`, `[[1], [1]]`, "[[1]]\n", `[[1]][[1]]`, `[[nul]]`, `[[nullx]]`, `[[tru]]`, `[[TRUE]]`, `[[-]]`, `[[+1]]`, `[[.]]`, `[[e]]`,
		`[[1e999]]`, `[[9223372036854775808]]`, `[[1.5.5]]`, `[[0x10]]`, `[[NaN]]`, `[[Infinity]]`, `[[1_0]]`,
		`[[""]]`, `[["x"]]`, `[["S"]]`, `[["d"]]`, `[["d1.5"]]`, `[["d1 "]]`, `[["f"]]`, `[["fnan"]]`, `[["f1.5"]]`, `[["fInf"]]`,
		`[["s]]`, `[["s\"]]`, `[["s\x"]]`, `[["s\u12"]]`, `[["s\u12g4"]]`, `[["s\ud800"]]`, `[["s\ud800A"]]`, `[["s\udc00"]]`,
		"[[\"s\x01\"]]", "[[\"s\n\"]]", `[['s']]`,
	} {
		var rows wireRows
		if err := rows.UnmarshalJSON([]byte(body)); err == nil {
			t.Errorf("%q decoded to %#v, want an error", body, rows)
		} else if rows != nil {
			t.Errorf("%q: an error and rows", body)
		}
	}
}

// mixedRelation is n rows of an INT, a FLOAT, a STRING, a DATE and a
// BOOL or NULL.
func mixedRelation(n int) *engine.Relation {
	rel := &engine.Relation{Cols: []string{"i", "f", "s", "d", "b"}, Rows: make([]engine.Row, n)}
	for i := range rel.Rows {
		last := value.Null()
		if i%3 > 0 {
			last = value.Bool(i%3 == 1)
		}
		rel.Rows[i] = engine.Row{value.Int(int64(i) * 7919), value.Float(float64(i) / 8), value.Str(fmt.Sprint("Customer#", i)),
			value.Date(9000 + int64(i%2000)), last}
	}
	return rel
}

// TestWireAllocatesPerChunk holds the wire to package arena's rule on both
// ends: a response body costs O(bytes / chunk) allocations to encode and to
// decode, never one per row or per cell.
func TestWireAllocatesPerChunk(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts differ under the race detector")
	}
	for _, n := range []int{60, 6000} {
		rel := mixedRelation(n)
		resp := queryResponse{Columns: rel.Cols, Rows: rel.Rows}
		body, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		enc := testing.AllocsPerRun(5, func() {
			if _, err := json.Marshal(resp); err != nil {
				t.Fatal(err)
			}
		})
		dec := testing.AllocsPerRun(5, func() {
			var qr queryResponse
			if err := json.Unmarshal(body, &qr); err != nil || len(qr.Rows) != n {
				t.Fatal(len(qr.Rows), err)
			}
		})
		if limit := float64(40 + n/50); enc > limit || dec > limit {
			t.Errorf("%d rows x 5 columns: %v allocations to encode, %v to decode, want at most %v each", n, enc, dec, limit)
		}
	}
}

// FuzzWireDecode: arbitrary bytes never panic the rows decoder nor make it
// allocate more than a multiple of their length — a cell of two bytes
// becomes a 32-byte value.Value in the row being read and again in its
// slab, both grown by doubling — and whatever decodes, re-encoded, decodes
// to the same rows.
func FuzzWireDecode(f *testing.F) {
	for _, rows := range wireTable() {
		body, err := json.Marshal(rows)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
		for cut := 1; cut < len(body); cut += 1 + len(body)/8 {
			f.Add(body[:cut])
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var rows wireRows
		err := rows.UnmarshalJSON(body)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 128*uint64(len(body))+64<<10 {
			t.Fatalf("%d bytes of body cost %d bytes to decode", len(body), grew)
		}
		if err != nil {
			return
		}
		again, err := rows.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		var back wireRows
		if err := back.UnmarshalJSON(again); err != nil {
			t.Fatalf("%q decoded, its re-encoding %q did not: %v", body, again, err)
		}
		if !reflect.DeepEqual(back, rows) {
			t.Fatalf("%q decoded to %#v, its re-encoding %q to %#v", body, rows, again, back)
		}
	})
}

// TestServedBytesMatchInProcess: a served answer renders byte-identically
// to the in-process one whatever bytes its strings hold — text that is not
// UTF-8 (encoding/json would rewrite it to U+FFFD) and every character
// encoding/json escapes on the way out.
func TestServedBytesMatchInProcess(t *testing.T) {
	st := store.New()
	cells := []string{"caf\xe9", "\xff\xfe", "<b>&amp;</b>", "\u2028|\u2029", `back\slash`, "tab\there", "日本語", "sdf"}
	rows := make([][]string, len(cells))
	for i, c := range cells {
		rows[i] = []string{fmt.Sprint(i), c}
	}
	ctx := context.Background()
	if err := engine.PartitionTable(ctx, st, "b", "t", []string{"id", "txt"}, rows, 2); err != nil {
		t.Fatal(err)
	}
	db, err := engine.Open("b", engine.WithBackend("primary", s3api.NewInProc(st)))
	if err != nil {
		t.Fatal(err)
	}
	srv := New(db, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(ctx)
	const q = "SELECT id, txt FROM t ORDER BY id"
	want, _, err := db.QueryContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewClient(ts.URL).Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Rows) != len(cells) || got.Relation.String() != want.String() {
		t.Errorf("served\n%q\nin process\n%q", got.Relation.String(), want.String())
	}
}
