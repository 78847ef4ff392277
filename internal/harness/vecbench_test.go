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
// the cases: every case returns rows, and the same number of them on the
// vectorized kernels as on the sequential reference.
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
	f := &VecBenchFixture{Workers: 4}
	if f.Lineitem, err = e.LoadTable("load lineitem", 0, "lineitem"); err != nil {
		t.Fatal(err)
	}
	if f.Part, err = e.LoadTable("load part", 0, "part"); err != nil {
		t.Fatal(err)
	}
	for _, c := range VecBenchCases() {
		refN, err := c.Run(f, false)
		if err != nil {
			t.Fatalf("%s (reference): %v", c.Name, err)
		}
		vecN, err := c.Run(f, true)
		if err != nil {
			t.Fatalf("%s (vectorized): %v", c.Name, err)
		}
		if refN == 0 || refN != vecN {
			t.Errorf("%s: reference returned %d rows, vectorized %d", c.Name, refN, vecN)
		}
	}
}
