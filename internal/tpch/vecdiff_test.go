package tpch

import (
	"context"
	"os"
	"testing"

	"pushdowndb/internal/engine"
	"pushdowndb/internal/s3api"
	"pushdowndb/internal/store"
)

// The TPC-H goldens through the result cache: the same query set on the
// same dataset must render the checked-in answers (which TestGoldenQueries
// pins without a cache) cold, when every select response fills the cache,
// and warm, when every one is served from it.
func TestGoldenVecRowDifferential(t *testing.T) {
	if *updateGolden {
		t.Skip("goldens are being rewritten")
	}
	st := store.New()
	ds, err := Load(context.Background(), st, Dataset{SF: 0.002, Seed: 42, Bucket: "tpch", Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	db, err := engine.Open(ds.Bucket,
		engine.WithBackend("s3sim", s3api.NewInProc(st)),
		engine.WithResultCache(64<<20))
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range goldenQueries {
		t.Run(q.name, func(t *testing.T) {
			want, err := os.ReadFile(goldenPath(q.name))
			if err != nil {
				t.Fatalf("missing golden (regenerate with -update): %v", err)
			}
			for _, pass := range []string{"cold", "warm"} {
				rel, _, err := db.QueryContext(context.Background(), q.sql)
				if err != nil {
					t.Fatalf("%s: %v", pass, err)
				}
				if got := renderGolden(rel); got != string(want) {
					t.Errorf("%s: answer drifted from golden\ngot:\n%s\nwant:\n%s", pass, got, want)
				}
			}
		})
	}
}
