package vec_test

import (
	"fmt"
	"strings"
	"testing"

	"pushdowndb/internal/colformat"
	"pushdowndb/internal/csvx"
	"pushdowndb/internal/engine"
	"pushdowndb/internal/sqlparse"
	"pushdowndb/internal/value"
	"pushdowndb/internal/vec"
)

// FuzzVecDecode feeds arbitrary bytes through the vectorized CSV decode
// route, which must agree cell-for-cell and kernel-for-kernel with the
// row-at-a-time reference. (The columnar route moved with its decoder:
// engine.FuzzColformatRead. The colformat seed stays: binary bytes are CSV
// input too.)
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
		// Against the row path. Synthetic column names keep fuzz-shaped
		// headers out of the SQL strings.
		header, rows, err := csvx.Decode(data, true)
		if err != nil || len(header) == 0 {
			return
		}
		cols := make([]string, len(header))
		for i := range cols {
			cols[i] = fmt.Sprintf("c%d", i)
		}
		b := vec.FromStrings(cols, rows, 3)
		rel := rowRel(cols, rows)
		if b.Len() != len(rel.Rows) {
			t.Fatalf("decoded %d rows, reference %d", b.Len(), len(rel.Rows))
		}
		for i := range rel.Rows {
			for c := range cols {
				w, g := rel.Rows[i][c], b.Vecs[c].Value(i)
				if w.Kind() != g.Kind() || w.String() != g.String() {
					t.Fatalf("cell[%d][%d]: row=%#v vec=%#v", i, c, w, g)
				}
			}
		}

		// Kernels over the decoded batch.
		pred, _ := sqlparse.ParseExpr("c0 IS NOT NULL AND c0 >= '3'")
		idx, ok := vec.Filter(b, pred, 3)
		want, err := engine.Operators{}.Filter(rel, pred)
		if !ok || err != nil {
			t.Fatalf("filter: compiled %v, reference err %v", ok, err)
		}
		if len(idx) != len(want.Rows) {
			t.Fatalf("filter kept %d, reference %d", len(idx), len(want.Rows))
		}
		for r, i := range idx {
			for c := range cols {
				if w, g := want.Rows[r][c], b.Vecs[c].Value(i); w.Kind() != g.Kind() || w.String() != g.String() {
					t.Fatalf("filter row %d col %d: row=%#v vec=%#v", r, c, w, g)
				}
			}
		}
		// The group-by on both operator sets: the vectorized set's aggregation
		// blocks over 3 worker spans, merged in span order, against the
		// reference's one block.
		sel, _ := sqlparse.Parse("SELECT c0, COUNT(*) AS n FROM t GROUP BY c0")
		wantG, wantErr := engine.Operators{}.GroupBy(rel, sel.GroupBy, sel.Items)
		gotG, err := engine.Operators{Vectorized: true, Workers: 3}.GroupBy(rel, sel.GroupBy, sel.Items)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("group-by err: vec=%v row=%v", err, wantErr)
		}
		sameGroups := func(what string, wantG, gotG *engine.Relation) {
			if len(gotG.Cols) != len(wantG.Cols) || len(gotG.Rows) != len(wantG.Rows) {
				t.Fatalf("%s %d columns x %d rows, reference %d x %d", what, len(gotG.Cols), len(gotG.Rows), len(wantG.Cols), len(wantG.Rows))
			}
			for i := range gotG.Rows {
				for c := range wantG.Cols {
					w, g := wantG.Rows[i][c], gotG.Rows[i][c]
					if w.Kind() != g.Kind() || w.String() != g.String() {
						t.Fatalf("%s[%d][%d]: row=%#v vec=%#v", what, i, c, w, g)
					}
				}
			}
		}
		if err != nil {
			return
		}
		sameGroups("group-by", wantG, gotG)

		// Span boundaries, grouping by every column so that each distinct
		// row's cells are a group's: the rows split across 1 to 8 spans (the
		// middle byte chooses), each folded into its own partial and merged
		// in span order — where a grouped scan's partitions would cut them —
		// against the one-block reference.
		all, err := sqlparse.Parse(fmt.Sprintf("SELECT %[1]s, COUNT(*) AS n FROM t GROUP BY %[1]s", strings.Join(cols, ", ")))
		if err != nil {
			t.Fatal(err)
		}
		wantAll, err := engine.Operators{}.GroupBy(rel, all.GroupBy, all.Items)
		if err != nil {
			t.Fatalf("reference group-by: %v", err)
		}
		spans := 1 + int(data[len(data)/2])%8
		gotAll, err := engine.Operators{Vectorized: true, Workers: spans}.GroupBy(rel, all.GroupBy, all.Items)
		if err != nil {
			t.Fatalf("group-by over %d spans: %v", spans, err)
		}
		sameGroups("spans", wantAll, gotAll)
	})
}
