package engine_test

import (
	"context"
	"runtime"
	"testing"
	"unsafe"

	"pushdowndb/internal/engine"
	"pushdowndb/internal/race"
	"pushdowndb/internal/s3api"
	"pushdowndb/internal/store"
	"pushdowndb/internal/tpch"
	"pushdowndb/internal/value"
)

// TestPlannedTopKHoldsKRows: a planned top-100 over TPC-H lineitem, which
// scans behind its threshold and ranks the rows that pass as they decode,
// allocates less than one relation of those rows would take; and LIMIT
// 1000000000 over a small table allocates about what LIMIT <its rows> does:
// a ranking grows with the rows it admits, never with K.
func TestPlannedTopKHoldsKRows(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation sizes differ under the race detector")
	}
	ctx := context.Background()
	bytesOf := func(db *engine.DB, sql, strategy string) (uint64, *engine.Exec) {
		const runs = 4
		_, e, err := db.QueryForced(ctx, sql, strategy) // warm: the statistics are cached
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			if _, _, err := db.QueryForced(ctx, sql, strategy); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs, e
	}

	st := store.New()
	ds, err := tpch.Load(ctx, st, tpch.Dataset{SF: 0.01, Seed: 42, Bucket: "tpch", Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	db, err := engine.Open(ds.Bucket, engine.WithBackend("s3sim", s3api.NewInProc(st)))
	if err != nil {
		t.Fatal(err)
	}
	got, e := bytesOf(db, "SELECT * FROM lineitem ORDER BY l_extendedprice DESC LIMIT 100", "")
	ap := e.QueryPlan().Scans[0].Access
	one, _, err := db.QueryContext(ctx, "SELECT * FROM lineitem LIMIT 1")
	if err != nil {
		t.Fatal(err)
	}
	width := len(one.Cols)
	relation := uint64(ap.ActualRows) * uint64(width*int(unsafe.Sizeof(value.Value{}))+int(unsafe.Sizeof(engine.Row{})))
	t.Logf("top-100: %d bytes a run; %d rows passed the threshold: %d bytes as a relation of %d columns", got, ap.ActualRows, relation, width)
	if ap.Pushed != engine.PushedTopK || ap.ActualRows < 1000 {
		t.Fatalf("tail %+v: want a threshold scan of at least 1000 rows", ap)
	}
	if got >= relation {
		t.Errorf("a planned top-100 allocates %d bytes a run, a relation of its %d threshold rows %d", got, ap.ActualRows, relation)
	}

	small := store.New()
	if err := engine.PartitionTable(ctx, small, "small", "t", []string{"id", "w", "s"}, engine.RankRows(300), 3); err != nil {
		t.Fatal(err)
	}
	if db, err = engine.Open("small", engine.WithBackend("s3sim", s3api.NewInProc(small))); err != nil {
		t.Fatal(err)
	}
	for _, strategy := range []string{"", engine.StrategyBaseline} {
		rows, _ := bytesOf(db, "SELECT * FROM t ORDER BY w DESC LIMIT 300", strategy)
		huge, _ := bytesOf(db, "SELECT * FROM t ORDER BY w DESC LIMIT 1000000000", strategy)
		t.Logf("path %q: LIMIT 300: %d bytes a run; LIMIT 1000000000: %d", strategy, rows, huge)
		if huge > rows+rows/10 {
			t.Errorf("path %q: LIMIT 1000000000 allocates %d bytes a run over 300 rows, LIMIT 300 %d", strategy, huge, rows)
		}
	}
}
