package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"pushdowndb/internal/csvx"
	"pushdowndb/internal/race"
	"pushdowndb/internal/s3api"
	"pushdowndb/internal/selectengine"
	"pushdowndb/internal/sqlparse"
	"pushdowndb/internal/store"
)

// The probing scan: a pushed scan carrying a build side joins each
// response's rows to the build side's hash table as the response decodes
// (pushedJoin), and answers as selectMetered over the same request and then
// Operators.HashJoin do: the same columns, rows in the same order, typed
// alike, or the same error. Its pairs are also held to the nested-loop
// oracle over value.Equal (nestedLoopJoin). Its joined rows meet a tail —
// a residual, then a fold — as they decode, and answer as Operators.Filter
// and Operators.GroupBy over either join do.

// checkSelectProbe compares the probing scan of req over table, its joined
// rows meeting tail, with selectMetered, HashJoin and the tail's operators'
// answer over the same request, and returns the error both answered (nil:
// none) and the rows answered.
func checkSelectProbe(t *testing.T, db *DB, label, table string, req selectengine.Request, build *Relation, buildKey, probeKey string, tail tailCase) (int, error) {
	t.Helper()
	ctx := context.Background()
	var want, oracle *Relation
	rel, wantErr := db.NewExecContext(ctx).selectMetered("scan", 0, table, req, 0)
	if wantErr == nil {
		want, wantErr = (Operators{}).HashJoin(build, rel, buildKey, probeKey)
		want, wantErr = joinedTail(want, wantErr, tail.residual, tail.fold)
	}
	if wantErr == nil {
		oracle, _ = joinedTail(nestedLoopJoin(build, rel, buildKey, probeKey), nil, tail.residual, tail.fold)
	}
	j := join{right: &TableScan{Table: table}, leftKey: buildKey, rightKey: probeKey, joinTail: joinTail{residual: tail.residual}}
	if tail.fold.items != nil {
		j.fold = &groupFold{keys: tail.fold.keys, items: tail.fold.items}
	}
	got, _, gotErr := db.NewExecContext(ctx).pushedJoin("probe", 0, req, j, func() *Relation { return build })
	if gotErr == nil && j.fold != nil {
		got, gotErr = j.fold.finish()
	}
	if fmt.Sprint(wantErr) != fmt.Sprint(gotErr) {
		t.Fatalf("%s: HashJoin's error %v, the probing scan's %v", label, wantErr, gotErr)
	}
	if wantErr != nil {
		return 0, wantErr
	}
	identicalRel(t, label, want, got)
	identicalRel(t, label+" (nested loop)", oracle, got)
	return len(want.Rows), nil
}

// TestSelectProbeMatchesHashJoin: over the differential tables — NULLs,
// NaNs, ragged rows, the name-rule headers — as CSV and as colformat, at 1,
// 2 and 7 partitions (so some responses hold no rows), every column as the
// probe key, with and without a pushed WHERE (one that keeps no row among
// them) and a projection, a probing scan answers as selectMetered and then
// Operators.HashJoin do, and its pairs are the nested loop's: over duplicate
// and NULL build keys, padded, float and date spellings, a far date, an
// empty build side, and a key neither side has. Over every column, its
// joined rows meeting a residual, a fold or both as they decode (joinTails)
// answer as Operators.Filter and Operators.GroupBy over either join do, or
// with the same error.
func TestSelectProbeMatchesHashJoin(t *testing.T) {
	ctx := context.Background()
	build, empty := probeBuild(), &Relation{Cols: []string{"bk", "btag"}}
	for _, format := range []string{"csv", "colformat"} {
		for _, parts := range []int{1, 2, 7} {
			st := store.New()
			for _, tbl := range diffTables {
				var err error
				if format == "csv" {
					err = PartitionTable(ctx, st, diffBucket, tbl.name, tbl.header, tbl.rows, parts)
				} else {
					schema, rows := columnarOf(tbl)
					err = PartitionTableColumnar(st, diffBucket, tbl.name, schema, rows, parts, 2, true)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			db, err := Open(diffBucket, WithBackend("inproc", s3api.NewInProc(st)))
			if err != nil {
				t.Fatal(err)
			}
			joined, failed := 0, 0
			for _, tbl := range diffTables {
				wheres := []sqlparse.Expr{nil}
				for _, wp := range append(wherePreds(tbl), wherePred{sql: "1 = 0"}) {
					pred, err := sqlparse.ParseExpr(wp.sql)
					if err != nil {
						t.Fatal(err)
					}
					wheres = append(wheres, pred)
				}
				for _, key := range append(tbl.header, "nosuch") {
					for _, cols := range [][]string{nil, {tbl.header[len(tbl.header)-1], key}} {
						for _, where := range wheres {
							req := db.request(tbl.name, scanSelect(columnItems(cols), where))
							tails := []tailCase{{}}
							if cols == nil && where == nil {
								tails = append(tails, joinTails(t, key)...)
							}
							for _, tail := range tails {
								for _, b := range []*Relation{build, empty} {
									label := fmt.Sprintf("%s parts=%d %s cols=%v WHERE %v: %d build rows on bk = %s, residual %v, %s",
										format, parts, tbl.name, cols, where, len(b.Rows), key, tail.residual, tail.fold.sql)
									n, err := checkSelectProbe(t, db, label, tbl.name, req, b, "bk", key, tail)
									if err != nil {
										failed++
									}
									joined += n
								}
							}
						}
					}
				}
			}
			if joined == 0 || failed == 0 {
				t.Errorf("%s parts=%d: %d rows joined and %d failures, want some of both", format, parts, joined, failed)
			}
		}
	}
}

// misclaim reports one row more than its body holds for the partitions it
// names, and answers every other call as the backend does.
type misclaim struct {
	s3api.Backend
	keys map[string]bool
}

func (b misclaim) Select(ctx context.Context, bucket, key string, req selectengine.Request) (*selectengine.Result, error) {
	res, err := b.Backend.Select(ctx, bucket, key, req)
	if err == nil && b.keys[key] {
		lie := *res
		lie.Stats.RowsReturned++
		res = &lie
	}
	return res, err
}

// TestSelectProbeEdges: the responses and errors a probing scan must
// answer as the scanned relation's HashJoin does — zero-byte partitions,
// whose responses name no columns, a table whose only object has no header
// at all, partitions of different widths or names (refused, as the scanned
// relation is), unknown probe and build keys, and
// a body that is not the rows its stats claim, in the last partition only
// or behind an unknown key (the claim's error wins).
func TestSelectProbeEdges(t *testing.T) {
	csvOf := func(header []string, rows ...[]string) []byte { return csvx.Encode(header, rows) }
	xy := []string{"x", "y"}
	st := store.New()
	for name, parts := range map[string][][]byte{
		"zero_first": {nil, csvOf(xy, []string{"1", "a"}, []string{"2", "b"}), csvOf(xy, []string{"3", "a"}, []string{"", "c"})},
		"no_header":  {nil},
		"widths":     {csvOf(xy, []string{"1", "a"}), csvOf([]string{"x", "y", "z"}, []string{"2", "b", "c"})},
		"liar":       {csvOf(xy, []string{"1", "a"}), csvOf(xy, []string{"3", "b"}, []string{"1", "c"})},
		"renamed":    {csvOf(xy, []string{"1", "a"}), csvOf([]string{"x", "z"}, []string{"3", "b"})},
	} {
		for i, data := range parts {
			st.Put(diffBucket, store.PartitionKey(name, i), data)
		}
	}
	backend := misclaim{Backend: s3api.NewInProc(st), keys: map[string]bool{store.PartitionKey("liar", 1): true}}
	db, err := Open(diffBucket, WithBackend("inproc", backend))
	if err != nil {
		t.Fatal(err)
	}
	build := cellsRel([]string{"k", "tag"}, [][]string{{"1", "one"}, {"3", "three"}, {"", "null"}, {"1", "uno"}, {" 2", "two"}})
	empty := &Relation{Cols: []string{"k", "tag"}}
	for _, c := range []struct {
		table, buildKey, probeKey string
		empty                     bool
		want                      string // the error, or "" for none
	}{
		{"zero_first", "k", "x", false, ""},
		{"zero_first", "k", "x", true, ""},
		{"zero_first", "k", "nosuch", false, `join key "nosuch" not in right relation [x y]`},
		{"zero_first", "nosuch", "nosuch", false, `join key "nosuch" not in left relation`},
		{"no_header", "k", "x", false, `join key "x" not in right relation []`},
		{"no_header", "nosuch", "x", false, `join key "nosuch" not in left relation`},
		{"widths", "k", "x", false, "differ in columns"},
		{"widths", "nosuch", "x", false, "differ in columns"},
		{"liar", "k", "x", false, "not the 3 rows its stats claim"},
		{"liar", "nosuch", "nosuch", true, "not the 3 rows its stats claim"},
		{"renamed", "k", "x", false, "differ in columns"},
	} {
		b := build
		if c.empty {
			b = empty
		}
		label := fmt.Sprintf("%s: %d build rows on %s = %s", c.table, len(b.Rows), c.buildKey, c.probeKey)
		req := db.request(c.table, scanSelect(nil, nil))
		for range 20 { // the responses' decodes race; the answer must not
			_, err := checkSelectProbe(t, db, label, c.table, req, b, c.buildKey, c.probeKey, tailCase{})
			if (err == nil) != (c.want == "") || err != nil && !strings.Contains(err.Error(), c.want) {
				t.Fatalf("%s: error %v, want %q", label, err, c.want)
			}
		}
	}
}

// TestSelectProbeRefusesAMovedKey: where a response names the probe key
// at another position than the first response does, or not at all, a join
// by position would join whatever cell sits at the first's position; the
// probing scan, which binds each response to the columns it names, refuses
// the responses instead, as every scan refuses partitions naming different
// columns (keptCols).
func TestSelectProbeRefusesAMovedKey(t *testing.T) {
	st := store.New()
	for name, headers := range map[string][][]string{"permuted": {{"x", "y"}, {"y", "x"}}, "renamed": {{"x", "y"}, {"x", "z"}}} {
		for i, h := range headers {
			st.Put(diffBucket, store.PartitionKey(name, i), csvx.Encode(h, [][]string{{"1", "1"}}))
		}
	}
	db, err := Open(diffBucket, WithBackend("inproc", s3api.NewInProc(st)))
	if err != nil {
		t.Fatal(err)
	}
	build := cellsRel([]string{"k"}, [][]string{{"1"}})
	for _, c := range []struct{ table, key, want string }{
		{"permuted", "x", `partitions differ in columns: [x y] vs [y x]`},
		{"renamed", "y", `partitions differ in columns: [x y] vs [x z]`},
	} {
		j := join{right: &TableScan{Table: c.table}, leftKey: "k", rightKey: c.key}
		_, _, err := db.NewExec().pushedJoin("probe", 0, db.request(c.table, scanSelect(nil, nil)), j, func() *Relation { return build })
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s on %s: %v, want %q", c.table, c.key, err, c.want)
		}
	}
}

// TestSelectProbeAllocatesPerMatch: a pushed probe returning 30,000
// lineitem-shaped rows against a build side of 2 part keys allocates what
// its matches take, not what its rows do: well under 300 KB, where
// decoding the rows and joining them after costs megabytes. The responses
// come from the result cache, so storage's own work is not in the figure.
func TestSelectProbeAllocatesPerMatch(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts differ under the race detector")
	}
	header, cells := lineitemShaped(30_000)
	st := store.New()
	if err := PartitionTable(context.Background(), st, diffBucket, "lineitem", header, cells, 4); err != nil {
		t.Fatal(err)
	}
	db, err := Open(diffBucket, WithBackend("inproc", s3api.NewInProc(st)), WithResultCache(testCacheBudget))
	if err != nil {
		t.Fatal(err)
	}
	build := cellsRel([]string{"p_partkey"}, [][]string{{"8"}, {"1500"}})
	req := db.request("lineitem", scanSelect(nil, nil))
	j := join{right: &TableScan{Table: "lineitem"}, leftKey: "p_partkey", rightKey: "l_partkey"}
	probe := func() *Relation {
		rel, _, err := db.NewExecContext(context.Background()).pushedJoin("probe", 0, req, j, func() *Relation { return build })
		if err != nil {
			t.Fatal(err)
		}
		return rel
	}
	if n := len(probe().Rows); n != 30 { // and the responses are cached
		t.Fatalf("the probe joined %d rows, want 30", n)
	}
	materialized := func() {
		rel, err := db.NewExecContext(context.Background()).selectMetered("scan", 0, "lineitem", req, 0)
		if err == nil {
			_, err = (Operators{}).HashJoin(build, rel, "p_partkey", "l_partkey")
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	const runs, limit = 5, 300 << 10
	got := allocatedBytes(func() {
		for range runs {
			probe()
		}
	}) / runs
	t.Logf("probing: %d bytes a scan; decoding, then joining: %d", got, allocatedBytes(materialized))
	if got > limit {
		t.Errorf("a 30,000-row pushed probe of 2 keys allocates %d bytes, want at most %d", got, limit)
	}
}

// TestFilteredJoinReportsTheBuildSidesError: when the build side's scan
// fails, the probe side's, which ran beside it, decodes nothing, every one
// of its selects has returned by the time Join does, and the join answers
// the build side's error.
func TestFilteredJoinReportsTheBuildSidesError(t *testing.T) {
	const parts = 16
	st := store.New()
	st.Put(diffBucket, store.PartitionKey("l", 0), csvx.Encode([]string{"k"}, [][]string{{"1"}}))
	var rows [][]string
	for i := range parts {
		rows = append(rows, []string{fmt.Sprint(i)})
	}
	if err := PartitionTable(context.Background(), st, diffBucket, "r", []string{"k2"}, rows, parts); err != nil {
		t.Fatal(err)
	}
	failing := s3api.NewFault(s3api.NewInProc(st))
	failing.OnOps("select")
	failing.FailWith(errors.New("injected build failure"))
	probeSelects := s3api.NewCounting(s3api.NewInProc(st))
	slow := s3api.NewFault(probeSelects)
	slow.OnOps("select")
	slow.StallFor(time.Millisecond)
	db, err := Open(diffBucket, WithBackend("inproc", slow), WithBackend("left", failing), WithTableBackend("l", "left"))
	if err != nil {
		t.Fatal(err)
	}
	_, err = db.NewExec().Join(JoinSpec{SQL: "SELECT * FROM l JOIN r ON l.k = r.k2"}, StrategyFiltered)
	if err == nil || !strings.Contains(err.Error(), "injected build failure") {
		t.Fatalf("filtered join: %v, want the build side's failure", err)
	}
	if got := probeSelects.Selects(); got != parts {
		t.Errorf("the filtered join returned after %d of the probe scan's %d selects; the rest were still to come", got, parts)
	}
}

// TestFanOutReportsThePartitionsOwnError: a load of a column no partition
// has, over a zero-byte partition and two whose headers lack it, names the
// first of those two in every run, whichever fails first on the clock: a
// failing partition does not cancel the one before it out of its own
// error.
func TestFanOutReportsThePartitionsOwnError(t *testing.T) {
	xy := []string{"x", "y"}
	st := store.New()
	for i, data := range [][]byte{nil, csvx.Encode(xy, [][]string{{"1", "a"}}), csvx.Encode(xy, [][]string{{"3", "a"}})} {
		st.Put(diffBucket, store.PartitionKey("zero_first", i), data)
	}
	db, err := Open(diffBucket, WithBackend("inproc", s3api.NewInProc(st)))
	if err != nil {
		t.Fatal(err)
	}
	for range 100 {
		_, err := db.NewExecContext(context.Background()).LoadTables(0, Load{Table: "zero_first", Cols: []string{"nosuch"}})
		if err == nil || !strings.Contains(err.Error(), store.PartitionKey("zero_first", 1)) {
			t.Fatalf("load error %v, want partition 1's", err)
		}
	}
}
