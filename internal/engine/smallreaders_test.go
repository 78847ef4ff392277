package engine

import (
	"context"
	"strings"
	"testing"

	"pushdowndb/internal/s3api"
	"pushdowndb/internal/selectengine"
	"pushdowndb/internal/store"
)

// forging is a lending backend that hands the sink, for each request whose
// SQL contains sql, the response forge makes of the one storage lent.
type forging struct {
	s3api.Backend
	sql   string
	forge func(key string, res *selectengine.Result) *selectengine.Result
}

func (f forging) Lend(ctx context.Context, bucket, key string, req selectengine.Request, sink func(*selectengine.Result) error) error {
	return s3api.Lending(f.Backend).Lend(ctx, bucket, key, req, func(res *selectengine.Result) error {
		if strings.Contains(req.SQL, f.sql) {
			res = f.forge(key, res)
		}
		return sink(res)
	})
}

// forged is a response naming cols whose body is lines, one row each.
func forged(cols []string, lines ...string) *selectengine.Result {
	body := ""
	for _, l := range lines {
		body += l + "\n"
	}
	return &selectengine.Result{Columns: cols, Body: []byte(body), Stats: selectengine.Stats{RowsReturned: int64(len(lines))}}
}

// forgedDB opens a DB over st whose backend forges, for requests whose SQL
// contains sql, every response with forge.
func forgedDB(t *testing.T, st *store.Store, sql string, forge func(key string, res *selectengine.Result) *selectengine.Result) *DB {
	t.Helper()
	db, err := Open(testBucket, WithBackend("s3sim", forging{s3api.NewInProc(st), sql, forge}))
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestProbeRefusesANonCountCell: a planning probe's count cell that is
// neither NULL nor an INT — text, a float, a date — fails the statement with
// the probe's shape error, where it once counted as zero or as its number.
func TestProbeRefusesANonCountCell(t *testing.T) {
	st := newTestStore(t)
	dropStats(st, testBucket, "cust", "ords")
	const sql = "SELECT c.ck, o.price FROM cust c JOIN ords o ON c.ck = o.ck WHERE c.bal < 0"
	for _, cell := range []string{"x", "1.5", "1995-01-01"} {
		db := forgedDB(t, st, "COUNT(*)", func(_ string, res *selectengine.Result) *selectengine.Result {
			cells := append([]string{cell}, make([]string, len(res.Columns)-1)...)
			return forged(res.Columns, strings.Join(cells, ","))
		})
		_, _, err := db.QueryContext(context.Background(), sql)
		if err == nil || !strings.HasSuffix(err.Error(), "returned unexpected shape") || !strings.HasPrefix(err.Error(), "engine: planning probe for ") {
			t.Errorf("a count cell %q: %v; want the probe's unexpected shape", cell, err)
		}
	}
}

// TestSelectAggWantsOneRowPerPartition: an aggregate select is one row of
// one cell per item from every partition, checked per partition: two rows
// from one and none from another are refused though they number the
// partitions, and so are rows as wide as another select list.
func TestSelectAggWantsOneRowPerPartition(t *testing.T) {
	st := newTestStore(t)
	for _, c := range []struct {
		name  string
		forge func(key string, res *selectengine.Result) *selectengine.Result
		want  string
	}{
		{"rows moved between partitions", func(key string, res *selectengine.Result) *selectengine.Result {
			switch key {
			case store.PartitionKey("events", 0):
				return forged(res.Columns, "1", "1")
			case store.PartitionKey("events", 1):
				return forged(res.Columns)
			}
			return res
		}, "engine: aggregate select returned 2 rows"},
		{"rows of two cells", func(_ string, res *selectengine.Result) *selectengine.Result {
			return forged([]string{"a", "b"}, "1,2")
		}, "engine: aggregate select returned 2 columns, expected 1"},
	} {
		e := forgedDB(t, st, "SUM(g)", c.forge).NewExec()
		if _, err := e.SelectAgg("agg", e.NextStage(), "events", "SELECT SUM(g) FROM S3Object"); err == nil || err.Error() != c.want {
			t.Errorf("%s: %v; want %q", c.name, err, c.want)
		}
	}
}

// TestIndexProbeRefusesABadEntry: an index probe's row is two INT cells;
// any other cell — text, a float, a date, NULL — is a bad index entry of
// the index partition that returned it.
func TestIndexProbeRefusesABadEntry(t *testing.T) {
	st := newTestStore(t)
	buildIndex(t, st, testBucket, "events", "k")
	for _, entry := range []string{"x,5", "1.5,7", "1995-01-01,3", ",5"} {
		db := forgedDB(t, st, "first_byte_offset", func(_ string, res *selectengine.Result) *selectengine.Result {
			return forged(res.Columns, "0,1", entry)
		})
		_, _, err := db.QueryForced(context.Background(), "SELECT * FROM events WHERE k < 10", StrategyIndexScan)
		if err == nil || !strings.Contains(err.Error(), "index: bad index entry [") {
			t.Errorf("entry %q: %v; want a bad index entry", entry, err)
		}
	}
}
