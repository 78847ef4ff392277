package engine

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"pushdowndb/internal/expr"
	"pushdowndb/internal/race"
	"pushdowndb/internal/s3api"
	"pushdowndb/internal/selectengine"
	"pushdowndb/internal/store"
	"pushdowndb/internal/value"
)

// TestGroupedScanPartitionBoundaries: a grouped scan folds each partition's
// response into the statement's one aggregation block, in partition order,
// so its answer — or its error — must be the forced baseline's (the whole
// objects decoded, then the relation grouped: another decode and another
// way into the block), byte for byte, at any worker budget. The columns change layout from partition to partition: m
// mixes INT and FLOAT cells, as storage renders an integral FLOAT as 0; n
// runs NULL across partition edges; d is a date key; s turns to text in the
// last partition, where SUM(s) fails.
func TestGroupedScanPartitionBoundaries(t *testing.T) {
	ctx := context.Background()
	st := store.New()
	var rows [][]string
	for i := range 61 {
		m := fmt.Sprint(i % 4)
		if i%5 == 3 {
			m = fmt.Sprintf("%d.25", i)
		}
		n := ""
		if i%13 >= 4 {
			n = fmt.Sprint(i * 7 % 11)
		}
		s := fmt.Sprint(i)
		if i >= 50 {
			s = "x"
		}
		rows = append(rows, []string{[]string{"a", "b", "", "c"}[i%4], fmt.Sprintf("1996-0%d-1%d", 1+i%3, i%2), m, n, s})
	}
	if err := PartitionTable(ctx, st, testBucket, "t", []string{"g", "d", "m", "n", "s"}, rows, 3); err != nil {
		t.Fatal(err)
	}
	st.Delete(testBucket, "t/_stats") // no pushed tail: every statement folds its plain scan
	statements := []string{
		"SELECT g, COUNT(*) AS c, SUM(m) AS sm, MIN(m) AS lo, MAX(n) AS hi, AVG(n) AS an FROM t GROUP BY g ORDER BY g",
		"SELECT d, SUM(m) AS sm, COUNT(n) AS cn FROM t GROUP BY d",
		"SELECT d, g, SUM(n) AS sn, MAX(m) AS hi FROM t WHERE m > 0 GROUP BY d, g ORDER BY sn DESC, d LIMIT 5",
		"SELECT n % 3 AS r, COUNT(*) AS c, SUM(m * 2) AS s2 FROM t GROUP BY n % 3",
		"SELECT COUNT(*) AS c, SUM(m) AS sm, MIN(s) AS lo, MAX(d) AS hi, AVG(m) AS am FROM t",
		"SELECT COUNT(*) AS c, SUM(m) AS sm FROM t WHERE n IS NULL",
		"SELECT g, SUM(s) AS ss FROM t GROUP BY g",
	}
	render := func(rel *Relation, err error) string {
		if err != nil {
			return "error: " + err.Error()
		}
		return fmt.Sprintf("%v %v", rel.Cols, rel.Rows)
	}
	for _, workers := range []int{1, 2, 7} {
		db, err := Open(testBucket, WithBackend("s3sim", s3api.NewInProc(st)), WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		for _, sql := range statements {
			want, _, wantErr := db.QueryForced(ctx, sql, StrategyBaseline)
			got, e, err := db.QueryContext(ctx, sql)
			if sc := e.QueryPlan().Scans[0]; sc.Access != nil && sc.Access.Pushed != "" {
				t.Fatalf("%s: pushed %s; the test wants the folded scan", sql, sc.Access.Pushed)
			}
			if g, w := render(got, err), render(want, wantErr); g != w {
				t.Errorf("workers=%d: %s\n got %s\nwant %s", workers, sql, g, w)
			}
		}
	}
}

// TestFoldRefusesAMiscountedBody: a body holding more or fewer rows than its
// response claims, a claim past what the body's bytes can hold, or a body
// that does not scan is an error, never a short fold; a well-formed body
// folds every row, each as wide as the columns (value.CSVCell).
func TestFoldRefusesAMiscountedBody(t *testing.T) {
	cols := []string{"a", "b"}
	sel := selectOf(t, "SELECT a, b, COUNT(*) AS n FROM t GROUP BY a, b")
	fold := func() *decoder { // a pushed scan's
		f, err := newGroupFold(scanSelect(columnItems(cols), nil), sel.GroupBy, sel.Items)
		if err != nil {
			t.Fatal(err)
		}
		return &decoder{fold: f, header: f.cols}
	}
	response := func(body string, rows int64) *selectengine.Result {
		return &selectengine.Result{Columns: cols, Body: []byte(body), Stats: selectengine.Stats{RowsReturned: rows}}
	}
	for _, tc := range []struct {
		body string
		rows int64
	}{
		{"1,2\n3,4\n", 1}, {"1,2\n3,4\n", 3}, {"1,2\n", 1 << 40}, {"1,2\n", -1}, {"1,\"2\n", 1},
	} {
		if _, err := decodeResponse(context.Background(), fold(), response(tc.body, tc.rows)); err == nil {
			t.Errorf("folding %q as %d rows succeeded, want an error", tc.body, tc.rows)
		}
	}
	if _, err := decodeResponse(context.Background(), fold(), &selectengine.Result{Columns: []string{"b", "a"}, Body: []byte("1,2\n"), Stats: selectengine.Stats{RowsReturned: 1}}); err == nil {
		t.Error("a response naming other columns than its request folded, want an error")
	}
	d := fold()
	_, err := decodeResponse(context.Background(), d, response("1,x\n\n3,\"y,z\"\n", 3))
	var rows []Row
	if err == nil {
		var out *Relation
		out, err = d.fold.finish()
		rows = out.Rows
	}
	if err != nil || d.fold.rows != 3 || len(rows) != 3 ||
		rows[0][0].AsInt() != 1 || !rows[1][0].IsNull() || !rows[1][1].IsNull() || rows[2][1].AsString() != "y,z" {
		t.Errorf("a well-formed body folds to %v (%d rows), %v", rows, d.fold.rows, err)
	}
}

// TestGroupByAllocatesPerGroup pins the one group-by to allocations per
// group chunk: 4 groups over 8k rows and over 64k
// cost the same within a small constant of mallocs and bytes (no vector and
// no row grows with the input), and 8k and 64k groups cost O(groups / chunk)
// mallocs (the output rows are cut from one slab, not allocated one by one;
// a float sum's exact accumulator is inline in its state).
func TestGroupByAllocatesPerGroup(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts differ under the race detector")
	}
	sel := selectOf(t, "SELECT g, COUNT(*) AS n, SUM(v) AS s, SUM(f) AS fs, MAX(d) AS hi FROM t GROUP BY g")
	rel := func(rows, groups int) *Relation {
		r := &Relation{Cols: []string{"g", "v", "d", "f"}, Rows: make([]Row, rows)}
		for i := range r.Rows {
			r.Rows[i] = Row{value.Int(int64(i % groups)), value.Int(int64(i)), value.Date(int64(9000 + i%365)), value.Float(float64(i) + 0.25)}
		}
		return r
	}
	run := func(in *Relation, groups int) func() {
		return func() {
			if out, err := GroupBy(in, sel.GroupBy, sel.Items); err != nil || len(out.Rows) != groups {
				t.Fatalf("%d groups (%v), want %d", len(out.Rows), err, groups)
			}
		}
	}
	allocs := func(rows, groups int) float64 { return testing.AllocsPerRun(3, run(rel(rows, groups), groups)) }
	if small, large := allocs(8<<10, 4), allocs(64<<10, 4); large-small > 8 {
		t.Errorf("4 groups over 8k rows allocate %v times, over 64k %v; want at most 8 apart", small, large)
	}
	small, large := rel(8<<10, 4), rel(64<<10, 4)
	if sb, lb := allocatedBytes(run(small, 4)), allocatedBytes(run(large, 4)); lb > sb+16<<10 {
		t.Errorf("4 groups over 8k rows allocate %d bytes, over 64k %d; want at most 16 KiB more", sb, lb)
	}
	for _, groups := range []int{8 << 10, 64 << 10} {
		if n, limit := allocs(groups, groups), 256+groups/32; n > float64(limit) {
			t.Errorf("%d groups allocate %v times, want at most %d", groups, n, limit)
		}
	}
}

// TestForcedBaselineBindsOnOneGet: a forced baseline holds no header before
// its scan, so it binds the statement to the first partition's and fetches
// the others only if that binds: a column the table lacks costs one GET and
// is a bad request.
func TestForcedBaselineBindsOnOneGet(t *testing.T) {
	ctx := context.Background()
	st := store.New()
	diffLoad(t, s3api.NewInProc(st))
	counting := s3api.NewCounting(s3api.NewInProc(st))
	db, err := Open(diffBucket, WithBackend("inproc", counting))
	if err != nil {
		t.Fatal(err)
	}
	if parts, _ := db.NewExecContext(ctx).parts("names"); len(parts) < 2 {
		t.Fatalf("names has %d partitions, want several", len(parts))
	}
	for _, sql := range []string{"SELECT nosuch FROM names", "SELECT k, COUNT(*) FROM names GROUP BY k ORDER BY SUM(nosuch)"} {
		gets := counting.Gets()
		_, e, err := db.QueryForced(ctx, sql, StrategyBaseline)
		if !errors.Is(err, expr.ErrUnknownColumn) || s3api.KindOf(err) != s3api.KindBadRequest {
			t.Errorf("%s: err %v, want an unknown column, %q", sql, err, s3api.KindBadRequest)
		}
		if n := counting.Gets() - gets; n != 1 {
			t.Errorf("%s: %d GETs, want the first partition's one", sql, n)
		}
		if e != nil {
			t.Logf("%s: billed $%.8f", sql, e.Cost().Total())
		}
	}
	gets := counting.Gets()
	if rel, _, err := db.QueryForced(ctx, "SELECT k FROM names", StrategyBaseline); err != nil || len(rel.Rows) == 0 {
		t.Fatalf("a statement that binds: %v, %v", rel, err)
	}
	if parts, _ := db.NewExecContext(ctx).parts("names"); counting.Gets()-gets != int64(len(parts)) {
		t.Errorf("a statement that binds made %d GETs, want one per partition (%d)", counting.Gets()-gets, len(parts))
	}
}
