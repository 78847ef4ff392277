package vec_test

import (
	"testing"

	"pushdowndb/internal/colformat"
	"pushdowndb/internal/csvx"
	"pushdowndb/internal/value"
	"pushdowndb/internal/vec"
)

// FuzzVecDecode feeds arbitrary bytes through the vectorized CSV decode
// route, which must agree cell for cell with the row-at-a-time reference.
// (The columnar route moved with its decoder: engine.FuzzColformatRead. The
// operators over the same decoded cells: engine.FuzzOperators. The
// colformat seed stays: binary bytes are CSV input too.)
func FuzzVecDecode(f *testing.F) {
	f.Add([]byte("a,b\n1,2\n3,\n"))
	f.Add([]byte("a,b\n1\n2,3,x\n"))
	f.Add([]byte("h\nNaN\n 7\n1994-03-15\n00501\n"))
	f.Add([]byte{0x00, 0xff, 'P', 'C', 'O', 'L', '1'})
	if seed, err := colformat.Encode(
		colformat.Schema{{Name: "x", Kind: value.KindInt}},
		[][]value.Value{{value.Int(7)}, {value.Null()}}, 1, true); err == nil {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		header, rows, err := csvx.Decode(data, true)
		if err != nil || len(header) == 0 {
			return
		}
		b := vec.FromStrings(header, rows, 3)
		ref := rowCells(len(header), rows)
		if b.Len() != len(ref) {
			t.Fatalf("decoded %d rows, reference %d", b.Len(), len(ref))
		}
		for i := range ref {
			for c := range header {
				w, g := ref[i][c], b.Vecs[c].Value(i)
				if w.Kind() != g.Kind() || w.String() != g.String() {
					t.Fatalf("cell[%d][%d]: row=%#v vec=%#v", i, c, w, g)
				}
			}
		}
	})
}
