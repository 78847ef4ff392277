package vec_test

import (
	"fmt"
	"sort"
	"testing"

	"pushdowndb/internal/colformat"
	"pushdowndb/internal/csvx"
	"pushdowndb/internal/engine"
	"pushdowndb/internal/expr"
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
		// The same rows as a select response's body, decoded by FromCSV.
		// Storage writes every row as wide as the columns (value.CSVCell).
		wide := make([][]string, len(rows))
		for i, r := range rows {
			wide[i] = make([]string, len(cols))
			copy(wide[i], r)
		}
		fromCSV, err := vec.FromCSV(cols, csvx.Encode(nil, wide), int64(len(rows)))
		if err != nil {
			t.Fatalf("FromCSV: %v", err)
		}
		for _, b := range []*vec.Batch{b, fromCSV} {
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
		}

		// Kernels over the decoded batch.
		pred, _ := sqlparse.ParseExpr("c0 IS NOT NULL AND c0 >= '3'")
		idx, err := vec.Filter(b, pred, 3)
		want, wantErr := engine.Operators{}.Filter(rel, pred)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("filter err: vec=%v row=%v", err, wantErr)
		}
		if err == nil && len(idx) != len(want.Rows) {
			t.Fatalf("filter kept %d, reference %d", len(idx), len(want.Rows))
		}
		sel, _ := sqlparse.Parse("SELECT c0, COUNT(*) AS n FROM t GROUP BY c0")
		gotCols, gotRows, err := vec.GroupBy(b, sel, 3)
		wantG, wantErr := engine.Operators{}.GroupBy(rel, sel.GroupBy, sel.Items)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("group-by err: vec=%v row=%v", err, wantErr)
		}
		sameGroups := func(what string, gotRows [][]value.Value) {
			if len(gotRows) != len(wantG.Rows) || len(gotCols) != len(wantG.Cols) {
				t.Fatalf("%s %d x %d, reference %d x %d",
					what, len(gotRows), len(gotCols), len(wantG.Rows), len(wantG.Cols))
			}
			for i := range gotRows {
				for c := range gotCols {
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
		sameGroups("group-by", gotRows)

		// The grouped scan's fold: the rows cut into one to three slices (the
		// input's first and last byte choose where), each decoded on its own — so a
		// column may be typed one way in one slice and another in the next —
		// and accumulated into one table, against the whole-table reference.
		cuts := []int{0, int(data[0]) % (len(rows) + 1), int(data[len(data)-1]) % (len(rows) + 1), len(rows)}
		sort.Ints(cuts)
		table := expr.NewGroups(expr.New(), sel.GroupBy, sqlparse.ItemExprs(sel.Items))
		for k := 1; k < len(cuts); k++ {
			part := vec.FromStrings(cols, rows[cuts[k-1]:cuts[k]], 2)
			if err := vec.Accumulate(table, part, k); err != nil {
				t.Fatalf("accumulate slice %d: %v", k, err)
			}
		}
		var folded [][]value.Value
		if err := table.Finish(func(row []value.Value) error {
			folded = append(folded, append([]value.Value(nil), row...))
			return nil
		}); err != nil {
			t.Fatalf("finish: %v", err)
		}
		sameGroups("fold", folded)
	})
}
