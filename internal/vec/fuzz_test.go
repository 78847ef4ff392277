package vec_test

import (
	"fmt"
	"sort"
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
		sel, _ := sqlparse.Parse("SELECT c0, COUNT(*) AS n FROM t GROUP BY c0")
		gotCols, gotRows, err := vec.GroupBy(b, sel, 3)
		wantG, wantErr := engine.Operators{}.GroupBy(rel, sel.GroupBy, sel.Items)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("group-by err: vec=%v row=%v", err, wantErr)
		}
		sameGroups := func(what string, wantG *engine.Relation, gotRows [][]value.Value) {
			if len(gotRows) != len(wantG.Rows) {
				t.Fatalf("%s %d rows, reference %d", what, len(gotRows), len(wantG.Rows))
			}
			for i := range gotRows {
				for c := range wantG.Cols {
					w, g := wantG.Rows[i][c], gotRows[i][c]
					if w.Kind() != g.Kind() || w.String() != g.String() {
						t.Fatalf("%s[%d][%d]: row=%#v vec=%#v", what, i, c, w, g)
					}
				}
			}
		}
		if err != nil {
			return
		}
		if len(gotCols) != len(wantG.Cols) {
			t.Fatalf("group-by %d columns, reference %d", len(gotCols), len(wantG.Cols))
		}
		sameGroups("group-by", wantG, gotRows)

		// The grouped scan's fold, grouping by every column so that each
		// distinct row's cells are a group's: the rows cut into one to three
		// slices (the input's first and last byte choose where), each a select
		// response's body, as wide as the columns (value.CSVCell), folded in
		// order a chunk of 1 to 8 rows at a time (the middle byte chooses) —
		// so a column may be typed one way in one chunk and another in the
		// next — against the whole-table reference.
		all, err := sqlparse.Parse(fmt.Sprintf("SELECT %[1]s, COUNT(*) AS n FROM t GROUP BY %[1]s", strings.Join(cols, ", ")))
		if err != nil {
			t.Fatal(err)
		}
		wantAll, err := engine.Operators{}.GroupBy(rel, all.GroupBy, all.Items)
		if err != nil {
			t.Fatalf("reference group-by: %v", err)
		}
		wide := make([][]string, len(rows))
		for i, r := range rows {
			wide[i] = make([]string, len(cols))
			copy(wide[i], r)
		}
		cuts := []int{0, int(data[0]) % (len(rows) + 1), int(data[len(data)-1]) % (len(rows) + 1), len(rows)}
		sort.Ints(cuts)
		defer vec.SetChunkRows(vec.SetChunkRows(1 + int(data[len(data)/2])%8))
		fold, err := vec.NewFold(all.GroupBy, all.Items)
		if err != nil {
			t.Fatal(err)
		}
		for k := 1; k < len(cuts); k++ {
			if err := fold.CSV(cols, csvx.Encode(nil, wide[cuts[k-1]:cuts[k]]), int64(cuts[k]-cuts[k-1])); err != nil {
				t.Fatalf("fold slice %d: %v", k, err)
			}
		}
		_, folded, err := vec.Finish(fold.Table, all.Items)
		if err != nil {
			t.Fatalf("finish: %v", err)
		}
		sameGroups("fold", wantAll, folded)
	})
}
