package engine

import (
	"context"
	"testing"

	"pushdowndb/internal/localfs"
	"pushdowndb/internal/s3api"
	"pushdowndb/internal/store"
)

// TestZeroBytePartition: a zero-byte object is a partition with no rows,
// wherever it falls in the table's partition order. Loads, SELECT * and
// the aggregates over table t must answer what they answer over ref, the
// same table without the empty object — on the in-process backend and on
// localfs.
func TestZeroBytePartition(t *testing.T) {
	const rows = "a,b\n1,x\n2,y\n"
	backends := map[string]func() s3api.Backend{
		"inproc":  func() s3api.Backend { return s3api.NewInProc(store.New()) },
		"localfs": func() s3api.Backend { return localfs.New(t.TempDir()) },
	}
	for name, newBackend := range backends {
		for _, order := range []struct {
			name  string
			parts []string
		}{{"empty-last", []string{rows, ""}}, {"empty-first", []string{"", rows}}} {
			t.Run(name+"/"+order.name, func(t *testing.T) {
				ctx := context.Background()
				b := newBackend()
				put := func(key, data string) {
					if err := b.(s3api.Putter).Put(ctx, testBucket, key, []byte(data)); err != nil {
						t.Fatal(err)
					}
				}
				for i, data := range order.parts {
					put(store.PartitionKey("t", i), data)
				}
				put(store.PartitionKey("ref", 0), rows)
				db, err := Open(testBucket, WithBackend("s3sim", b))
				if err != nil {
					t.Fatal(err)
				}

				load := func(table string) (*Relation, error) {
					e := db.NewExec()
					return e.LoadTable("load", e.NextStage(), table)
				}
				query := func(sql string) func(string) (*Relation, error) {
					return func(table string) (*Relation, error) {
						rel, _, err := db.QueryContext(ctx, sql+table)
						return rel, err
					}
				}
				for _, c := range []struct {
					name string
					run  func(table string) (*Relation, error)
				}{
					{"LoadTable", load},
					{"SELECT *", query("SELECT * FROM ")},
					{"COUNT(*)", query("SELECT COUNT(*) FROM ")},
					{"SUM", query("SELECT SUM(a) FROM ")},
				} {
					want, err := c.run("ref")
					if err != nil {
						t.Fatalf("%s over ref: %v", c.name, err)
					}
					got, err := c.run("t")
					if err != nil {
						t.Errorf("%s: %v", c.name, err)
						continue
					}
					if g, w := render(got, false), render(want, false); g != w {
						t.Errorf("%s:\n got %s\nwant %s", c.name, g, w)
					}
				}
			})
		}
	}
}
