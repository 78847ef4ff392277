package engine

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"pushdowndb/internal/colformat"
	"pushdowndb/internal/csvx"
	"pushdowndb/internal/s3api"
	"pushdowndb/internal/selectengine"
	"pushdowndb/internal/store"
	"pushdowndb/internal/value"
)

// The statistics-object battery: what the loaders write, what the decoder
// refuses, and that a plan made from an object, from a remote probe or from
// neither's leftovers returns the same rows.

// diffJoins are the join statements of the differential corpus.
func diffJoins() (out []struct {
	name, sql string
	ordered   bool
}) {
	for _, q := range diffQueries {
		if strings.Contains(q.sql, " JOIN ") {
			out = append(out, q)
		}
	}
	return out
}

// diffStore holds the differential corpus tables, as CSV or as colformat
// objects under the same names.
func diffStore(t testing.TB, columnar bool) *store.Store {
	t.Helper()
	st := store.New()
	if !columnar {
		diffLoad(t, s3api.NewInProc(st))
		return st
	}
	csv := store.New()
	diffLoad(t, s3api.NewInProc(csv))
	kinds := map[string][]value.Kind{
		"p":    {value.KindInt, value.KindString, value.KindFloat, value.KindString},
		"ord":  {value.KindInt, value.KindInt, value.KindFloat, value.KindString},
		"item": {value.KindInt, value.KindInt, value.KindInt},
	}
	for table, ks := range kinds {
		var schema colformat.Schema
		var rows [][]value.Value
		for _, key := range csv.TableParts(diffBucket, table) {
			data, _ := csv.Get(diffBucket, key)
			header, cells, err := csvx.Decode(data, true)
			if err != nil {
				t.Fatal(err)
			}
			schema = schema[:0]
			for i, h := range header {
				schema = append(schema, colformat.ColumnDef{Name: h, Kind: ks[i]})
			}
			for _, r := range cells {
				row := make([]value.Value, len(r))
				for j, f := range r {
					switch {
					case f == "":
						row[j] = value.Null()
					case ks[j] == value.KindString:
						row[j] = value.Str(f)
					case ks[j] == value.KindFloat:
						row[j], err = value.CastFloat(value.Str(f))
					default:
						row[j], err = value.CastInt(value.Str(f))
					}
					if err != nil {
						t.Fatal(err)
					}
				}
				rows = append(rows, row)
			}
		}
		if err := PartitionTableColumnar(st, diffBucket, table, schema, rows, 2, 3, true); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// dropStats deletes the tables' statistics objects, leaving the planner the
// header GET and the remote probe.
func dropStats(st *store.Store, bucket string, tables ...string) {
	for _, table := range tables {
		st.Delete(bucket, StatsKey(table))
	}
}

func openOver(t testing.TB, bucket string, st *store.Store, opts ...Option) *DB {
	t.Helper()
	db, err := Open(bucket, append([]Option{WithBackend("s3sim", s3api.NewInProc(st))}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestStatsObjectExactForSmallTables is the estimate-quality check's exact
// half: a table at or under the sample size is sampled whole, so every
// statistic planned from its object equals the remote probe's count.
func TestStatsObjectExactForSmallTables(t *testing.T) {
	with, without := diffStore(t, false), diffStore(t, false)
	dropStats(without, diffBucket, "p", "ord", "item")
	dbWith, dbWithout := openOver(t, diffBucket, with), openOver(t, diffBucket, without)
	for _, q := range diffJoins() {
		sampled, _, err := planOf(dbWith, q.sql)
		if err != nil {
			t.Fatalf("%s: %v", q.name, err)
		}
		probed, _, err := planOf(dbWithout, q.sql)
		if err != nil {
			t.Fatalf("%s: %v", q.name, err)
		}
		for i, sc := range sampled.Scans {
			pr := probed.Scans[i]
			if sc.StatsSource != StatsFromObject || pr.StatsSource != StatsFromProbe {
				t.Errorf("%s scan %s: sources %q and %q, want the object against the probe", q.name, sc.Table, sc.StatsSource, pr.StatsSource)
			}
			if sc.Stats != pr.Stats || strings.Contains(sampled.String(), "rows, ~") {
				t.Errorf("%s scan %s: from the object %+v, from the probe %+v; plan:\n%s", q.name, sc.Table, sc.Stats, pr.Stats, sampled)
			}
		}
	}
}

// parentThreeTableReport is Metrics.Report() of threeTableDB's join planned
// by header GET and remote probe, with its runtime, bill and request totals.
// Its plan rows are what planning cost at the commit before statistics
// objects existed; its execution rows are the join's with each scan
// returning only the columns the server reads (the Bloom build ships cust's
// key, not the bal its pushed filter reads).
const parentThreeTableReport = `phase                    stage   requests       scanMB     returnMB        sec
plan header cust             0          1         0.00         0.00      0.519
plan header items            0          1         0.00         0.00      1.102
plan header ords             0          1         0.00         0.00      1.275
plan probe cust              1          2         0.00         0.00      0.446
plan probe items             1          2         0.00         0.00      1.260
plan probe ords              1          4         0.01         0.00      0.947
bloom build cust             2          2         0.00         0.00      0.968
bloom probe ords             3          4         0.01         0.00      3.332
hash join                    3          0         0.00         0.00      8.440
bloom build intermediate     4          0         0.00         0.00      1.720
bloom probe items            5          2         0.00         0.00      2.870
hash join                    5          0         0.00         0.00      9.720
local                        6          0         0.00         0.00      1.720
`

// TestJoinsIdenticalWithAndWithoutStats is the differential: every join of
// the corpus, over CSV and over colformat tables, returns the same rows
// planned from statistics objects and planned by remote probe, and the
// probe path still plans as the parent did, to the bit.
func TestJoinsIdenticalWithAndWithoutStats(t *testing.T) {
	for _, columnar := range []bool{false, true} {
		with, without := diffStore(t, columnar), diffStore(t, columnar)
		dropStats(without, diffBucket, "p", "ord", "item")
		dbWith, dbWithout := openOver(t, diffBucket, with), openOver(t, diffBucket, without)
		for _, q := range diffJoins() {
			a, ea, err := dbWith.QueryContext(context.Background(), q.sql)
			if err != nil {
				t.Fatalf("columnar=%v %s with statistics: %v", columnar, q.name, err)
			}
			b, eb, err := dbWithout.QueryContext(context.Background(), q.sql)
			if err != nil {
				t.Fatalf("columnar=%v %s without statistics: %v", columnar, q.name, err)
			}
			if ra, rb := render(a, q.ordered), render(b, q.ordered); ra != rb {
				t.Errorf("columnar=%v %s: rows differ\nwith statistics:\n%s\nwithout:\n%s", columnar, q.name, ra, rb)
			}
			for _, sc := range ea.QueryPlan().Scans {
				if sc.StatsSource == StatsFromProbe || sc.Stats.Columnar != columnar {
					t.Errorf("columnar=%v %s scan %s: source %q, Columnar %v", columnar, q.name, sc.Table, sc.StatsSource, sc.Stats.Columnar)
				}
			}
			for _, sc := range eb.QueryPlan().Scans {
				if sc.StatsSource == StatsFromObject {
					t.Errorf("columnar=%v %s scan %s planned from a deleted object", columnar, q.name, sc.Table)
				}
			}
			if strings.Contains(eb.Metrics.Report(), "plan stats") {
				t.Errorf("columnar=%v %s: the probe path left a plan stats phase:\n%s", columnar, q.name, eb.Metrics.Report())
			}
		}
	}

	db, sql := threeTableDB(t)
	db.stores["s3sim"] = s3api.NewMetered("s3sim", db.bucket, noStats{db.stores["s3sim"].Unbilled()})
	_, e, err := db.QueryContext(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	req, scan, ret, get := e.Metrics.Totals()
	got := fmt.Sprintf("%s%.17g %.17g %d %d %d %d", e.Metrics.Report(), e.RuntimeSeconds(), e.Cost().Total(), req, scan, ret, get)
	if want := parentThreeTableReport + "25.103499999999997 0.018490760674205884 19 17514 5043 2884"; got != want {
		t.Errorf("planning by probe no longer costs what it did:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// noStats is a backend on which no table has a statistics object.
type noStats struct{ s3api.Backend }

func (b noStats) GetRange(ctx context.Context, bucket, key string, first, last int64) ([]byte, error) {
	if strings.HasSuffix(key, "/_stats") {
		return nil, s3api.NewError("get_range", bucket, key, s3api.KindNotFound, store.ErrNotFound)
	}
	return b.Backend.GetRange(ctx, bucket, key, first, last)
}

// putOrder records the keys a loader writes, in order.
type putOrder struct {
	s3api.Putter
	keys []string
}

func (p *putOrder) Put(ctx context.Context, bucket, key string, data []byte) error {
	p.keys = append(p.keys, key)
	return p.Putter.Put(ctx, bucket, key, data)
}

// TestStaleStatsObjectIsIgnored: an object whose stamps disagree with the
// live partitions is not planned from; InvalidateTable drops the verdict
// and a reload through the loader is picked up again.
func TestStaleStatsObjectIsIgnored(t *testing.T) {
	db, st := newTestDB(t)
	sql := "SELECT COUNT(*) AS n FROM cust c JOIN ords o ON c.ck = o.ck WHERE o.price < 250"
	sourceOf := func(table string) string {
		t.Helper()
		plan, _, err := planOf(db, sql)
		if err != nil {
			t.Fatal(err)
		}
		for _, sc := range plan.Scans {
			if sc.Table == table {
				return sc.StatsSource
			}
		}
		t.Fatalf("no scan of %s", table)
		return ""
	}
	if got := sourceOf("ords"); got != StatsFromObject {
		t.Fatalf("fresh table planned from %q", got)
	}
	want, _, err := db.QueryContext(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}

	// One partition rewritten behind the loader's back: same rows plus one
	// that the filter keeps and the join matches.
	key := store.PartitionKey("ords", 1)
	old, _ := st.Get(testBucket, key)
	st.Put(testBucket, key, append(append([]byte{}, old...), "9999,7,1.00\n"...))
	db.InvalidateTable("ords")
	if got := sourceOf("ords"); got != StatsFromProbe {
		t.Errorf("stale object: ords planned from %q, want the probe", got)
	}
	if got := sourceOf("cust"); got == StatsFromProbe {
		t.Errorf("cust was not touched, planned from %q", got)
	}
	rel, _, err := db.QueryContext(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	if got, was := rel.Rows[0][0].AsInt(), want.Rows[0][0].AsInt(); got != was+1 {
		t.Errorf("after the rewrite COUNT = %d, want %d", got, was+1)
	}
	// The verdict is memoized: two plans on a fresh DB read each object
	// once (two ranged GETs) and, for want of one, ords' header twice.
	counting := s3api.NewCounting(s3api.NewInProc(st))
	db2, err := Open(testBucket, WithBackend("s3sim", counting))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, _, err := planOf(db2, sql); err != nil {
			t.Fatal(err)
		}
	}
	if n := counting.GetRangeCalls(); n != 4 {
		t.Errorf("two plans issued %d ranged GETs, want 4: the stale object's verdict is not memoized", n)
	}

	// A reload through the loader writes fresh stamps, last.
	rec := &putOrder{Putter: s3api.NewInProc(st)}
	rows := [][]string{{"1", "7", "10.00"}, {"2", "8", "400.00"}, {"3", "9", "20.00"}}
	if err := PartitionTableTo(context.Background(), rec, testBucket, "ords", []string{"ok", "ck", "price"}, rows, 4); err != nil {
		t.Fatal(err)
	}
	if last := rec.keys[len(rec.keys)-1]; last != StatsKey("ords") || len(rec.keys) != 5 {
		t.Errorf("loader wrote %v: the statistics object must come last", rec.keys)
	}
	if got := sourceOf("ords"); got != StatsFromProbe {
		t.Errorf("before InvalidateTable the old verdict stands, got %q", got)
	}
	db.InvalidateTable("ords")
	if got := sourceOf("ords"); got != StatsFromObject {
		t.Errorf("reloaded table planned from %q, want its new object", got)
	}
	rel, _, err = db.QueryContext(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	if got := rel.Rows[0][0].AsInt(); got != 2 {
		t.Errorf("after the reload COUNT = %d, want 2", got)
	}
}

// goodStats returns the loader-written object of the test store's ords
// table, and the store.
func goodStats(t testing.TB) ([]byte, *store.Store) {
	t.Helper()
	st := newTestStore(t)
	data, err := st.Get(testBucket, StatsKey("ords"))
	if err != nil {
		t.Fatal(err)
	}
	return data, st
}

// hostileStats are statistics objects the decoder must refuse, made from a
// good one by changing one thing.
func hostileStats(good []byte) map[string][]byte {
	line, sample, _ := bytes.Cut(good, []byte{'\n'})
	preamble := strings.Split(string(line), ",")
	const version, format, rows, sampleRows, sampleBytes, partitions = 1, 2, 3, 4, 5, 6
	build := func(preamble []string, sample []byte) []byte {
		return append([]byte(strings.Join(preamble, ",")+"\n"), sample...)
	}
	claim := func(field int, v string) []byte {
		p := append([]string{}, preamble...)
		p[field] = v
		return build(p, sample)
	}
	// resample swaps the sample and keeps the preamble's byte count honest.
	resample := func(sample []byte) []byte {
		p := append([]string{}, preamble...)
		p[sampleBytes] = fmt.Sprint(len(sample))
		return build(p, sample)
	}
	header, body, _ := bytes.Cut(sample, []byte{'\n'})
	firstRow, restRows, _ := bytes.Cut(body, []byte{'\n'})
	rowsFrom := func(header, first string) []byte {
		return []byte(header + "\n" + first + "\n" + string(restRows))
	}
	return map[string][]byte{
		"empty":                 {},
		"garbage preamble":      append([]byte("\x00\xff\x89PNG,1,csv"), good[len(line):]...),
		"truncated preamble":    good[:len(line)/2],
		"truncated sample":      good[:len(good)-40],
		"trailing bytes":        append(append([]byte{}, good...), "1,1,1.00\n"...),
		"future version":        claim(version, "2"),
		"unknown format":        claim(format, "parquet"),
		"negative rows":         claim(rows, "-400"),
		"rows under the sample": claim(rows, "7"),
		"huge rows":             claim(rows, "9223372036854775807"),
		"sample rows claim":     claim(sampleRows, "4000000000"),
		"multi-GiB sample":      claim(sampleBytes, "8589934592"),
		"too few part sizes":    build(preamble[:len(preamble)-1], sample),
		"too many part sizes":   build(append(append([]string{}, preamble...), "17"), sample),
		"partition count claim": claim(partitions, "1000000000"),
		"negative part size":    claim(partitions+1, "-5"),
		"no sample":             resample(nil),
		"sample wider":          resample(rowsFrom(string(header), string(firstRow)+",1")),
		"sample narrower":       resample(rowsFrom(string(header), string(firstRow[:bytes.LastIndexByte(firstRow, ',')]))),
		"columns wider":         resample(rowsFrom(string(header)+",extra", string(firstRow))),
		"sample row missing":    resample([]byte(string(header) + "\n" + string(restRows))),
		// The last cell ends in the colformat magic: the select engine would
		// take the sample for a columnar object.
		"columnar magic tail": resample(append(append([]byte{}, sample[:len(sample)-1]...), colformat.Magic...)),
	}
}

// TestHostileStatsObjects: every malformed object is refused by the decoder
// without allocating beyond its own size, and a table carrying one is
// planned by probe and answered correctly.
func TestHostileStatsObjects(t *testing.T) {
	good, st := goodStats(t)
	if _, err := decodeTableStats(good); err != nil {
		t.Fatalf("the loader's own object is refused: %v", err)
	}
	db := openOver(t, testBucket, st)
	sql := "SELECT COUNT(*) AS n, SUM(o.price) AS s FROM cust c JOIN ords o ON c.ck = o.ck WHERE o.price < 250"
	want, _, err := db.QueryContext(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range hostileStats(good) {
		if bytes.Equal(data, good) {
			t.Fatalf("%s: the mutation did not change the object", name)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ts, err := decodeTableStats(data)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: accepted: %+v", name, ts)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(len(good))+4096 {
			t.Errorf("%s: refusing a %d-byte object allocated %d bytes", name, len(data), grew)
		}
		st.Put(testBucket, StatsKey("ords"), data)
		db.InvalidateStats()
		rel, e, err := db.QueryContext(context.Background(), sql)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sameRows(t, name, rel, want)
		for _, sc := range e.QueryPlan().Scans {
			if wantSource := map[string]string{"cust": StatsFromObject, "ords": StatsFromProbe}[sc.Table]; sc.StatsSource != wantSource {
				t.Errorf("%s: %s planned from %q, want %q", name, sc.Table, sc.StatsSource, wantSource)
			}
		}
	}

	// Oversized: a well-formed object over the cap is read up to the cap,
	// paid for and ignored.
	big := append(append([]byte{}, good...), bytes.Repeat([]byte("1,1,1.00\n"), maxStatsObjectBytes/9+1)...)
	st.Put(testBucket, StatsKey("ords"), big)
	db.InvalidateStats()
	plan, e, err := planOf(db, sql)
	if err != nil {
		t.Fatal(err)
	}
	if src := plan.Scans[1].StatsSource; src != StatsFromProbe {
		t.Errorf("oversized object: ords planned from %q", src)
	}
	if _, _, _, get := e.Metrics.Totals(); get < maxStatsObjectBytes || get > maxStatsObjectBytes+(1<<20) {
		t.Errorf("oversized object: %d GET bytes metered, want the capped read", get)
	}
}

// TestStatsObjectDeterministic pins the writer: the same rows give the same
// bytes, and the sample is rows 0, k, 2k, ... for k = ⌈N/2048⌉ — the whole
// table at or under 2048 rows.
func TestStatsObjectDeterministic(t *testing.T) {
	a, _ := goodStats(t)
	b, _ := goodStats(t)
	if !bytes.Equal(a, b) {
		t.Error("loading the same rows twice wrote different statistics objects")
	}
	for _, tc := range []struct{ n, stride, sampled, last int }{
		{0, 1, 0, -1}, {1, 1, 1, 0}, {2047, 1, 2047, 2046}, {2048, 1, 2048, 2047},
		{2049, 2, 1025, 2048}, {4096, 2, 2048, 4094}, {4097, 3, 1366, 4095},
		{60190, 30, 2007, 60180}, {1 << 20, 512, 2048, 1<<20 - 512},
	} {
		rows := make([]int, tc.n)
		for i := range rows {
			rows[i] = i
		}
		got := strideSample(rows)
		if len(got) != tc.sampled {
			t.Errorf("n=%d: %d rows sampled, want %d", tc.n, len(got), tc.sampled)
			continue
		}
		for i, r := range got {
			if r != i*tc.stride {
				t.Errorf("n=%d: sample[%d] is row %d, want %d (stride %d from row 0)", tc.n, i, r, i*tc.stride, tc.stride)
				break
			}
		}
		if tc.n > 0 && got[len(got)-1] != tc.last {
			t.Errorf("n=%d: last sampled row %d, want %d", tc.n, got[len(got)-1], tc.last)
		}
		// The decoder holds an object to the same rule.
		cells := make([][]string, len(got))
		for i, r := range got {
			cells[i] = []string{fmt.Sprint(r)}
		}
		if _, err := decodeTableStats(encodeTableStats("csv", []string{"k"}, tc.n, []int64{1}, cells)); err != nil {
			t.Errorf("n=%d: the writer's object is refused: %v", tc.n, err)
		}
	}
}

// TestTableHeaderRefusesBinary: a columnar table too large for the header
// probe joins from its statistics object; without one it is a kinded bad
// request that quotes no object bytes (it used to be "column not in table
// [<4 KiB of binary>]").
func TestTableHeaderRefusesBinary(t *testing.T) {
	st := store.New()
	schema := colformat.Schema{{Name: "k", Kind: value.KindInt}, {Name: "s", Kind: value.KindString}}
	var rows [][]value.Value
	for i := 0; i < 3000; i++ {
		rows = append(rows, []value.Value{value.Int(int64(i)), value.Str(fmt.Sprintf("row-%d-%d", i, i*i))})
	}
	for _, table := range []string{"big", "big2"} {
		if err := PartitionTableColumnar(st, testBucket, table, schema, rows, 1, 1000, false); err != nil {
			t.Fatal(err)
		}
	}
	db := openOver(t, testBucket, st)
	sql := "SELECT COUNT(*) AS n FROM big a JOIN big2 b ON a.k = b.k WHERE a.k < 10"
	rel, _, err := db.QueryContext(context.Background(), sql)
	if err != nil || rel.Rows[0][0].AsInt() != 10 {
		t.Fatalf("join over large columnar tables: %v, %v", rel, err)
	}
	dropStats(st, testBucket, "big", "big2")
	db.InvalidateStats()
	_, _, err = db.QueryContext(context.Background(), sql)
	if err == nil || s3api.KindOf(err) != s3api.KindBadRequest || !strings.Contains(err.Error(), "no CSV header row") {
		t.Fatalf("without statistics objects: %v, want a bad_request naming the missing header", err)
	}
	for _, r := range err.Error() {
		if r < ' ' || r > '~' {
			t.Fatalf("the error quotes object bytes: %q", err.Error())
		}
	}
}

// FuzzTableStatsDecode feeds arbitrary bytes to the statistics decoder and,
// when it accepts them, to everything downstream of it: a two-conjunct
// probe SQL over the sample and a join planned from the object. Errors are
// fine; a panic is a finding, and so is an input that costs over 64 MiB.
func FuzzTableStatsDecode(f *testing.F) {
	good, st := goodStats(f)
	f.Add(good)
	colStats, err := columnarFixture(f).Get(diffBucket, StatsKey("c"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(colStats)
	for _, h := range hostileStats(good) {
		f.Add(h)
	}
	db := openOver(f, testBucket, st)
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if ts, err := decodeTableStats(data); err == nil {
			_, _ = selectengine.Execute(ts.sample, selectengine.Request{HasHeader: true,
				SQL: "SELECT COUNT(*), SUM(CASE WHEN price < 250 AND ck >= 3 THEN 1 ELSE 0 END) FROM S3Object"})
			// Past the staleness stamps, as if the partitions matched.
			db.InvalidateStats()
			db.statsMu.Lock()
			db.meta = map[string]tableMeta{"ords": {stats: ts, statsRead: true}}
			db.statsMu.Unlock()
			if plan, _, err := planOf(db, "SELECT COUNT(*) AS n FROM cust c JOIN ords o ON c.ck = o.ck WHERE o.price < 250 AND o.ck >= 3"); err == nil {
				_ = plan.String()
			}
		}
		runtime.ReadMemStats(&after)
		if mb := (after.TotalAlloc - before.TotalAlloc) >> 20; mb > 64 {
			t.Fatalf("a %d-byte statistics object cost %d MiB", len(data), mb)
		}
	})
}
