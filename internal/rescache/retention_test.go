package rescache

import (
	"runtime"
	"strconv"
	"testing"

	"pushdowndb/internal/csvx"
	"pushdowndb/internal/race"
	"pushdowndb/internal/selectengine"
)

// liveHeap is the bytes of reachable heap objects, size-class rounding
// included.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestResultRetention: the cache charges a response resultSize bytes, so
// what a finished Result actually keeps reachable — its body's whole array
// — must stay near that at every size: within 1.5x, the small Result's own
// headers and size-class rounding (1.2x measured at 1 and 100 rows, 1.0x at
// 100k). A body that doubled as it filled kept up to 2x; one started at a
// fixed large size fails the one-row case by orders of magnitude: that is a
// cache full of one-row aggregates each pinning a buffer, and resident
// memory to match.
func TestResultRetention(t *testing.T) {
	if race.Enabled {
		t.Skip("heap sizes differ under the race detector")
	}
	for _, rows := range []int{1, 100, 100_000} {
		cells := make([][]string, rows)
		for i := range cells {
			cells[i] = []string{strconv.Itoa(4001 + i), "21168.23", "0.04", "1996-03-13", "TRUCK"}
		}
		data := csvx.Encode([]string{"l_orderkey", "l_extendedprice", "l_discount", "l_shipdate", "l_shipmode"}, cells)
		req := selectengine.Request{HasHeader: true,
			SQL: "SELECT l_orderkey, l_extendedprice * (1 - l_discount), l_shipdate, l_shipmode FROM S3Object"}
		// Enough copies that the bytes per Result dwarf what else moves.
		held := make([]*selectengine.Result, max(1, 20_000/rows))
		before := liveHeap()
		for i := range held {
			var err error
			if held[i], err = selectengine.Execute(data, req); err != nil {
				t.Fatal(err)
			}
		}
		retained := int64(liveHeap()-before) / int64(len(held))
		runtime.KeepAlive(data)
		if charged := resultSize(held[0]); held[0].Stats.RowsReturned != int64(rows) || retained > 3*charged/2 {
			t.Errorf("a %d-row Result keeps %d bytes reachable; the cache charges it %d", held[0].Stats.RowsReturned, retained, charged)
		} else {
			t.Logf("%d rows: %d bytes reachable, %d charged (%.2fx)", rows, retained, charged, float64(retained)/float64(charged))
		}
	}
}
