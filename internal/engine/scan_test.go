package engine

import (
	"bytes"
	"context"
	"strings"
	"sync/atomic"
	"testing"

	"pushdowndb/internal/localfs"
	"pushdowndb/internal/s3api"
	"pushdowndb/internal/selectengine"
	"pushdowndb/internal/sqlparse"
	"pushdowndb/internal/store"
)

// TestZeroBytePartition: a zero-byte object is a partition with no rows,
// wherever it falls in the table's partition order. Loads (one with a
// Where, which binds to the first header there is), SELECT * and the
// aggregates over table t must answer what they answer over ref, the
// same table without the empty object — on the in-process backend and on
// localfs.
func TestZeroBytePartition(t *testing.T) {
	const rows = "a,b\n1,x\n2,y\n"
	where, err := sqlparse.ParseExpr("a > 1")
	if err != nil {
		t.Fatal(err)
	}
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
					{"a Load's Where", func(table string) (*Relation, error) {
						rels, err := db.NewExec().LoadTables(0, Load{Table: table, Where: where})
						if err != nil {
							return nil, err
						}
						return rels[0], nil
					}},
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

// TestPermutedHeadersAreRefused: partitions whose headers name the same
// columns in another order are no table a relation can be cut from by
// position. Joined by position, SELECT * FROM t WHERE a > 3 answered
// [[5 6] [7 8]] on the baseline (the WHERE bound to partition 0's
// positions) and [[5 6] [3 4] [7 8]] pushed (every response labelled with
// the first's columns), where the rows are (5,6), (4,3) and (8,7). Planned,
// forced baseline and forced filtered, the statement is refused, with the
// same error.
func TestPermutedHeadersAreRefused(t *testing.T) {
	st := store.New()
	st.Put(testBucket, store.PartitionKey("t", 0), []byte("a,b\n1,2\n5,6\n"))
	st.Put(testBucket, store.PartitionKey("t", 1), []byte("b,a\n3,4\n7,8\n"))
	db, err := Open(testBucket, WithBackend("s3sim", s3api.NewInProc(st)))
	if err != nil {
		t.Fatal(err)
	}
	const sql = "SELECT * FROM t WHERE a > 3"
	const want = "engine: partitions differ in columns: [a b] vs [b a]"
	ctx := context.Background()
	for name, run := range map[string]func() (*Relation, error){
		"planned": func() (*Relation, error) { rel, _, err := db.QueryContext(ctx, sql); return rel, err },
		"baseline": func() (*Relation, error) {
			rel, _, err := db.QueryForced(ctx, sql, StrategyBaseline)
			return rel, err
		},
		"filtered": func() (*Relation, error) {
			rel, _, err := db.QueryForced(ctx, sql, StrategyFiltered)
			return rel, err
		},
	} {
		if rel, err := run(); err == nil || err.Error() != want {
			t.Errorf("%s: %v, %v; want %q", name, rel, err, want)
		}
	}
}

// miscountedSelects adds a copy of the first line of every non-empty select
// response's body (extra) or drops its last line, in a copy of the body
// (responses are shared), leaving the stats as storage counted them.
type miscountedSelects struct {
	s3api.Backend
	extra bool
	hit   *atomic.Int64
}

func (m miscountedSelects) Select(ctx context.Context, bucket, key string, req selectengine.Request) (*selectengine.Result, error) {
	res, err := m.Backend.Select(ctx, bucket, key, req)
	if err != nil || len(res.Body) == 0 {
		return res, err
	}
	m.hit.Add(1)
	bad := *res
	if first := res.Body[:bytes.IndexByte(res.Body, '\n')+1]; m.extra {
		bad.Body = append(bytes.Clone(res.Body), first...)
	} else {
		bad.Body = res.Body[:bytes.LastIndexByte(res.Body[:len(res.Body)-1], '\n')+1]
	}
	return &bad, nil
}

// TestMiscountedResponseFails: a select response whose body holds a row more
// or a row less than its stats claim is refused on the rows path (a pushed
// projection) as on the typed path (a pushed group-by): the statement fails
// and no answer comes back.
func TestMiscountedResponseFails(t *testing.T) {
	for _, extra := range []bool{true, false} {
		for _, sql := range []string{
			"SELECT k, v FROM events WHERE v > 0",
			"SELECT g, SUM(k), COUNT(*) FROM events WHERE v > 0 GROUP BY g",
		} {
			var hit atomic.Int64
			db, err := Open(testBucket, WithBackend("s3sim", miscountedSelects{s3api.NewInProc(newTestStore(t)), extra, &hit}))
			if err != nil {
				t.Fatal(err)
			}
			rel, _, err := db.QueryContext(context.Background(), sql)
			if hit.Load() == 0 {
				t.Fatalf("extra=%v: %s: no select response reached the statement", extra, sql)
			}
			if err == nil || rel != nil || !strings.Contains(err.Error(), "rows its stats claim") {
				t.Errorf("extra=%v: %s: answer %v, err %v; want no answer and the response refused", extra, sql, rel != nil, err)
			}
		}
	}
}
