package engine

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"pushdowndb/internal/colformat"
	"pushdowndb/internal/csvx"
	"pushdowndb/internal/index"
	"pushdowndb/internal/s3api"
	"pushdowndb/internal/store"
	"pushdowndb/internal/value"
)

func TestPartitionTableSplitsEvenly(t *testing.T) {
	st := store.New()
	var rows [][]string
	for i := 0; i < 10; i++ {
		rows = append(rows, []string{fmt.Sprint(i)})
	}
	if err := PartitionTable(context.Background(), st, "b", "t", []string{"x"}, rows, 4); err != nil {
		t.Fatal(err)
	}
	parts := st.TableParts("b", "t")
	if len(parts) != 4 {
		t.Fatalf("parts = %v", parts)
	}
	// Every partition carries the header; rows are disjoint and complete.
	seen := map[string]bool{}
	for _, key := range parts {
		data, _ := st.Get("b", key)
		header, rs, err := csvx.Decode(data, true)
		if err != nil || header[0] != "x" {
			t.Fatalf("partition %s: %v %v", key, header, err)
		}
		for _, r := range rs {
			if seen[r[0]] {
				t.Fatalf("duplicate row %v", r)
			}
			seen[r[0]] = true
		}
	}
	if len(seen) != 10 {
		t.Fatalf("rows across partitions = %d", len(seen))
	}
}

func TestPartitionTableMorePartsThanRows(t *testing.T) {
	st := store.New()
	if err := PartitionTable(context.Background(), st, "b", "t", []string{"x"}, [][]string{{"1"}}, 8); err != nil {
		t.Fatal(err)
	}
	// All partitions exist (some empty but with headers).
	parts := st.TableParts("b", "t")
	if len(parts) != 8 {
		t.Fatalf("parts = %d", len(parts))
	}
	db, err := Open("b", WithBackend("s3sim", s3api.NewInProc(st)))
	if err != nil {
		t.Fatal(err)
	}
	rel, err := db.NewExec().SelectRows("s", 0, "t", "SELECT * FROM S3Object")
	if err != nil || len(rel.Rows) != 1 {
		t.Fatalf("scan over sparse partitions: %v %v", rel, err)
	}
}

// TestReloadIntoFewerPartitions: a table reloaded from a CSV file into fewer
// partitions answers with the new rows only. The partitions past the new
// count used to stay listed, holding the old rows.
func TestReloadIntoFewerPartitions(t *testing.T) {
	ctx := context.Background()
	be := s3api.NewInProc(store.New())
	path := filepath.Join(t.TempDir(), "t.csv")
	load := func(rows, parts int) {
		t.Helper()
		data := "x\n"
		for i := 0; i < rows; i++ {
			data += fmt.Sprintf("%d\n", i)
		}
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		if n, err := LoadCSVFile(ctx, be, "b", "t", path, parts); err != nil || n != rows {
			t.Fatalf("LoadCSVFile = %d, %v; want %d rows", n, err, rows)
		}
	}
	load(8, 4)
	load(2, 1)
	db, err := Open("b", WithBackend("s3sim", be))
	if err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{"SELECT COUNT(*) FROM t", "SELECT COUNT(*) FROM t WHERE x >= 0"} {
		rel, _, err := db.QueryContext(ctx, sql)
		if err != nil {
			t.Fatal(err)
		}
		if got := rel.Rows[0][0].AsInt(); got != 2 {
			t.Errorf("%s after reloading 2 rows into 1 partition = %d, want 2", sql, got)
		}
	}
}

func TestCreateIndexOffsets(t *testing.T) {
	st := store.New()
	rows := [][]string{{"10", "a"}, {"20", "b,with,commas"}, {"30", "c"}}
	if err := PartitionTable(context.Background(), st, "b", "t", []string{"k", "s"}, rows, 1); err != nil {
		t.Fatal(err)
	}
	buildIndex(t, st, "b", "t", "k")
	idxData, err := st.Get("b", index.ObjectKey("t", "k", 0))
	if err != nil {
		t.Fatal(err)
	}
	_, idxRows, err := csvx.Decode(idxData, true)
	if err != nil || len(idxRows) != 3 {
		t.Fatalf("index rows = %v, %v", idxRows, err)
	}
	// Each offset range must slice the data partition back to its row.
	data, _ := st.Get("b", store.PartitionKey("t", 0))
	for i, ir := range idxRows {
		first, _ := strconv.ParseInt(ir[1], 10, 64)
		last, _ := strconv.ParseInt(ir[2], 10, 64)
		frag := data[first : last+1]
		_, fr, err := csvx.Decode(frag, false)
		if err != nil || len(fr) != 1 {
			t.Fatalf("row %d fragment %q: %v", i, frag, err)
		}
		if fr[0][0] != rows[i][0] || fr[0][1] != rows[i][1] {
			t.Fatalf("row %d: fragment %v != %v", i, fr[0], rows[i])
		}
		if ir[0] != rows[i][0] {
			t.Fatalf("index value %q != %q", ir[0], rows[i][0])
		}
	}
}

func TestCreateIndexErrors(t *testing.T) {
	ctx := context.Background()
	st := store.New()
	db, err := Open("b", WithBackend("s3sim", s3api.NewInProc(st)))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex(ctx, "missing", "k"); err == nil {
		t.Error("missing table should error")
	}
	_ = PartitionTable(ctx, st, "b", "t", []string{"a"}, [][]string{{"1"}}, 1)
	if err := db.CreateIndex(ctx, "t", "nosuch"); err == nil {
		t.Error("missing column should error")
	}
	if got := db.Indexes(ctx, "t"); len(got) != 0 {
		t.Errorf("a failed build left manifest entries: %+v", got)
	}
}

func TestPartitionTableColumnar(t *testing.T) {
	st := store.New()
	schema := colformat.Schema{{Name: "x", Kind: value.KindInt}}
	var rows [][]value.Value
	for i := 0; i < 20; i++ {
		rows = append(rows, []value.Value{value.Int(int64(i))})
	}
	if err := PartitionTableColumnar(st, "b", "t", schema, rows, 3, 4, true); err != nil {
		t.Fatal(err)
	}
	db, err := Open("b", WithBackend("s3sim", s3api.NewInProc(st)))
	if err != nil {
		t.Fatal(err)
	}
	rel, err := db.NewExec().SelectRows("s", 0, "t", "SELECT x FROM S3Object WHERE x >= 15")
	if err != nil {
		t.Fatal(err)
	}
	if len(rel.Rows) != 5 {
		t.Fatalf("rows = %v", rel.Rows)
	}
}

// TestIndexIsNamedByItsManifest pins what replaced the index-table naming
// convention: an index is found through the table's manifest, and its
// objects live under the table's own prefix, outside every partition
// listing.
func TestIndexIsNamedByItsManifest(t *testing.T) {
	ctx := context.Background()
	db, st := newTestDB(t)
	if err := db.CreateIndex(ctx, "events", "v"); err != nil {
		t.Fatal(err)
	}
	ents := db.Indexes(ctx, "events")
	if len(ents) != 1 || ents[0].Column != "v" || ents[0].Name != "ix_events_v" || ents[0].Partitions != 4 {
		t.Fatalf("Indexes(events) = %+v", ents)
	}
	if got := st.TableParts(testBucket, "events"); len(got) != 4 {
		t.Errorf("data partition listing sees index objects: %v", got)
	}
	if got := st.TableParts(testBucket, index.Table("events", "v")); len(got) != 4 {
		t.Errorf("index objects of events(v): %v", got)
	}
}
