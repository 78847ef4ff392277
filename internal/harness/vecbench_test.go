package harness

import (
	"context"
	"testing"

	"pushdowndb/internal/engine"
	"pushdowndb/internal/s3api"
	"pushdowndb/internal/store"
	"pushdowndb/internal/tpch"
)

// TestVecBenchCasesAgree is the cross-check bench/ relies on when it times
// the cases: every case returns rows, the same number run after run (an
// operator leaves its input as it was), and the join one per lineitem row
// (every l_partkey names one part).
func TestVecBenchCasesAgree(t *testing.T) {
	ctx := context.Background()
	st := store.New()
	ds, err := tpch.Load(ctx, st, tpch.Dataset{SF: 0.002, Seed: 42, Bucket: "vecbench", Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	db, err := engine.Open(ds.Bucket, engine.WithBackend("s3sim", s3api.NewInProc(st)))
	if err != nil {
		t.Fatal(err)
	}
	e := db.NewExecContext(ctx)
	f := &VecBenchFixture{}
	if f.Lineitem, err = e.LoadTable("load lineitem", 0, "lineitem"); err != nil {
		t.Fatal(err)
	}
	if f.Part, err = e.LoadTable("load part", 0, "part"); err != nil {
		t.Fatal(err)
	}
	for _, c := range VecBenchCases() {
		first, err := c.Run(f, false)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		again, err := c.Run(f, true)
		if err != nil {
			t.Fatalf("%s (again): %v", c.Name, err)
		}
		if first == 0 || first != again {
			t.Errorf("%s: returned %d rows, then %d", c.Name, first, again)
		}
		if c.Name == "join" && first != len(f.Lineitem.Rows) {
			t.Errorf("join: %d rows, want one per lineitem row (%d)", first, len(f.Lineitem.Rows))
		}
	}
}
