package server

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"pushdowndb/internal/engine"
	"pushdowndb/internal/value"
)

// TestRelationWireRoundTrip pins the bytes a relation rides the wire as,
// that decoding them reproduces every value exactly, and that the rows on
// both sides — windows of shared arrays since they stopped costing an
// allocation each — cannot be grown into one another.
func TestRelationWireRoundTrip(t *testing.T) {
	rel := &engine.Relation{Cols: []string{"a", "b", "c"}, Rows: []engine.Row{
		{value.Int(-7), value.Str("x,\"y\""), value.Null()},
		{value.Float(0.1), value.Date(9568), value.Bool(true)},
		{},
		{value.Float(math.Inf(-1)), value.Str(""), value.Bool(false)},
	}}
	cols, rows := encodeRelation(rel)
	got, err := json.Marshal(queryResponse{Columns: cols, Rows: rows})
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"columns":["a","b","c"],"rows":[` +
		`[{"k":"i","v":"-7"},{"k":"s","v":"x,\"y\""},{}],` +
		`[{"k":"f","v":"0.1"},{"k":"d","v":"9568"},{"k":"b","v":"t"}],` +
		`[],` +
		`[{"k":"f","v":"-Inf"},{"k":"s"},{"k":"b","v":"f"}]],` +
		`"runtime_sec":0,"cost":` + `{`
	if len(got) < len(want) || string(got[:len(want)]) != want {
		t.Errorf("wire bytes changed:\n got %s\nwant %s…", got, want)
	}

	var qr queryResponse
	if err := json.Unmarshal(got, &qr); err != nil {
		t.Fatal(err)
	}
	back, err := decodeRelation(qr.Columns, qr.Rows)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, rel) {
		t.Errorf("decoded %v, sent %v", back.Rows, rel.Rows)
	}
	for i := 0; i+1 < len(rows); i++ {
		nextCells := append([]Cell{}, rows[i+1]...)
		nextRow := append(engine.Row{}, back.Rows[i+1]...)
		_ = append(rows[i], Cell{K: "s", V: "overflow"})
		_ = append(back.Rows[i], value.Str("overflow"))
		if !reflect.DeepEqual(rows[i+1], nextCells) || !reflect.DeepEqual(back.Rows[i+1], nextRow) {
			t.Fatalf("append to row %d rewrote row %d", i, i+1)
		}
	}
}
