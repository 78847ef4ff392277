package vec_test

import (
	"context"
	"fmt"
	"testing"

	"pushdowndb/internal/engine"
	"pushdowndb/internal/s3api"
	"pushdowndb/internal/store"
	"pushdowndb/internal/vec"
)

// TestFoldChunkBoundaries: a grouped scan folds each partition's response
// into the statement's one group table a chunk at a time, so its answer — or
// its error — must be the reference operator set's, byte for byte, wherever
// the chunk edges fall. The columns change layout from chunk to chunk: m
// mixes INT and FLOAT cells, as storage renders an integral FLOAT as 0, so a
// chunk of it is typed and the next boxed; n runs NULL across chunk edges;
// d is a date key; s turns to text in the last partition, where SUM(s) fails.
func TestFoldChunkBoundaries(t *testing.T) {
	ctx := context.Background()
	const bucket = "b"
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
	if err := engine.PartitionTable(ctx, st, bucket, "t", []string{"g", "d", "m", "n", "s"}, rows, 3); err != nil {
		t.Fatal(err)
	}
	st.Delete(bucket, "t/_stats") // no pushed tail: every statement folds its plain scan
	statements := []string{
		"SELECT g, COUNT(*) AS c, SUM(m) AS sm, MIN(m) AS lo, MAX(n) AS hi, AVG(n) AS an FROM t GROUP BY g ORDER BY g",
		"SELECT d, SUM(m) AS sm, COUNT(n) AS cn FROM t GROUP BY d",
		"SELECT d, g, SUM(n) AS sn, MAX(m) AS hi FROM t WHERE m > 0 GROUP BY d, g ORDER BY sn DESC, d LIMIT 5",
		"SELECT n % 3 AS r, COUNT(*) AS c, SUM(m * 2) AS s2 FROM t GROUP BY n % 3",
		"SELECT COUNT(*) AS c, SUM(m) AS sm, MIN(s) AS lo, MAX(d) AS hi, AVG(m) AS am FROM t",
		"SELECT COUNT(*) AS c, SUM(m) AS sm FROM t WHERE n IS NULL",
		"SELECT g, SUM(s) AS ss FROM t GROUP BY g",
	}
	open := func(opts ...engine.Option) *engine.DB {
		db, err := engine.Open(bucket, append(opts, engine.WithBackend("s3sim", s3api.NewInProc(st)))...)
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	render := func(rel *engine.Relation, err error) string {
		if err != nil {
			return "error: " + err.Error()
		}
		return fmt.Sprintf("%v %v", rel.Cols, rel.Rows)
	}
	ref := open(engine.WithVectorized(false))
	defer vec.SetChunkRows(vec.SetChunkRows(1))
	for _, chunk := range []int{1, 2, 7, 1024} {
		vec.SetChunkRows(chunk)
		db := open(engine.WithWorkers(3))
		for _, sql := range statements {
			want, _, wantErr := ref.QueryContext(ctx, sql)
			got, e, err := db.QueryContext(ctx, sql)
			if sc := e.QueryPlan().Scans[0]; sc.Access != nil && sc.Access.Pushed != "" {
				t.Fatalf("%s: pushed %s; the test wants the folded scan", sql, sc.Access.Pushed)
			}
			if g, w := render(got, err), render(want, wantErr); g != w {
				t.Errorf("chunks of %d: %s\n got %s\nwant %s", chunk, sql, g, w)
			}
		}
	}
}
