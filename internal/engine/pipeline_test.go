package engine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"pushdowndb/internal/cloudsim"
	"pushdowndb/internal/colformat"
	"pushdowndb/internal/s3api"
	"pushdowndb/internal/scanshare"
	"pushdowndb/internal/selectengine"
	"pushdowndb/internal/sqlparse"
	"pushdowndb/internal/store"
	"pushdowndb/internal/value"
)

// The select-pipeline battery: every composition of the two layers Open can
// put over a backend's Select, over a CSV and a columnar table, must return
// the rows of a plain DB and meter each way a response can be served —
// direct, cache hit, shared pass — exactly as the cost model defines it.

const (
	pipeBucket = "pipe"
	pipeParts  = 4
	// pipeScan is the merge-eligible scan the concurrency checks share;
	// pipeMark picks its pushed Selects out of everything else a query may
	// issue (heldSelects holds only those).
	pipeScan = "SELECT k, v FROM %s WHERE g = 5"
	pipeMark = "= 5"
)

// pipelineFixture writes the same 240 rows (k, g, v, tag) as CSV table "t" and
// columnar table "c", unindexed, so every query takes the pushed-scan path.
func pipelineFixture(t *testing.T) *store.Store {
	t.Helper()
	st := store.New()
	var csv [][]string
	var typed [][]value.Value
	for i := 0; i < 240; i++ {
		v := float64(i%31) * 1.5
		tag := fmt.Sprintf("tag-%d", i%5)
		csv = append(csv, []string{fmt.Sprint(i), fmt.Sprint(i % 7), fmt.Sprint(v), tag})
		typed = append(typed, []value.Value{value.Int(int64(i)), value.Int(int64(i % 7)), value.Float(v), value.Str(tag)})
	}
	if err := PartitionTable(context.Background(), st, pipeBucket, "t", []string{"k", "g", "v", "tag"}, csv, pipeParts); err != nil {
		t.Fatal(err)
	}
	schema := colformat.Schema{
		{Name: "k", Kind: value.KindInt}, {Name: "g", Kind: value.KindInt}, {Name: "v", Kind: value.KindFloat},
		{Name: "tag", Kind: value.KindString},
	}
	if err := PartitionTableColumnar(st, pipeBucket, "c", schema, typed, pipeParts, 16, true); err != nil {
		t.Fatal(err)
	}
	return st
}

type composition struct {
	name         string
	cache, share bool
}

var compositions = []composition{
	{"none", false, false}, {"cache", true, false}, {"share", false, true}, {"cache+share", true, true},
}

// open builds a DB with the composition's layers over backend; window is
// the share layer's batching window.
func (c composition) open(t *testing.T, backend s3api.Backend, window time.Duration) *DB {
	t.Helper()
	// Priced at a scale where pushing a tail pays: the fixture is 240 rows.
	opts := []Option{WithBackend("s3sim", backend), WithScale(cloudsim.Scale{DataRatio: 1e5, PartRatio: 8})}
	if c.cache {
		opts = append(opts, WithResultCache(testCacheBudget))
	}
	if c.share {
		opts = append(opts, WithScanSharing(scanshare.Config{Window: window}))
	}
	db, err := Open(pipeBucket, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// heldSelects is a counting backend that holds every Select whose SQL
// contains pipeMark until gate closes, announcing each on entered — an
// in-flight backend pass on cue.
type heldSelects struct {
	*s3api.Counting
	entered chan struct{}
	gate    chan struct{}
	once    sync.Once
}

// newHeldSelects wraps st; the gate also opens when the test ends, so a
// failed check never strands the queries it was holding.
func newHeldSelects(t *testing.T, st *store.Store) *heldSelects {
	g := &heldSelects{
		Counting: s3api.NewCounting(s3api.NewInProc(st)),
		entered:  make(chan struct{}, 64),
		gate:     make(chan struct{}),
	}
	t.Cleanup(g.release)
	return g
}

func (g *heldSelects) release() { g.once.Do(func() { close(g.gate) }) }

func (g *heldSelects) Lend(ctx context.Context, bucket, key string, req selectengine.Request, sink func(*selectengine.Result) error) error {
	if strings.Contains(req.SQL, pipeMark) {
		g.entered <- struct{}{}
		<-g.gate
	}
	return g.Counting.Lend(ctx, bucket, key, req, sink)
}

// awaitPasses waits for n held Selects.
func (g *heldSelects) awaitPasses(t *testing.T, n int, what string) {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case <-g.entered:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: only %d of %d backend passes started", what, i, n)
		}
	}
}

// bill is everything the cost model recorded for one execution.
type bill struct {
	requests, scan, returned, get int64
	runtime                       float64
	cost                          cloudsim.CostBreakdown
}

func billOf(e *Exec) bill {
	b := bill{runtime: e.RuntimeSeconds(), cost: e.Cost()}
	b.requests, b.scan, b.returned, b.get = e.Metrics.Totals()
	return b
}

func identicalRows(t *testing.T, what string, want, got *Relation) {
	t.Helper()
	if !reflect.DeepEqual(want.Cols, got.Cols) || !reflect.DeepEqual(want.Rows, got.Rows) {
		t.Fatalf("%s: rows differ from the plain DB's\nwant %v\n got %v", what, want, got)
	}
}

func TestSelectPipelineCompositions(t *testing.T) {
	st := pipelineFixture(t)
	for _, table := range []string{"t", "c"} {
		for _, comp := range compositions {
			t.Run(comp.name+"-"+table, func(t *testing.T) {
				t.Run("sequential", func(t *testing.T) { pipelineSequential(t, st, table, comp) })
				if comp.share {
					t.Run("concurrent", func(t *testing.T) { pipelineConcurrent(t, st, table, comp) })
					t.Run("singleflight", func(t *testing.T) { pipelineSingleflight(t, st, table, comp) })
				}
				if comp.cache {
					t.Run("fill-vs-invalidate", func(t *testing.T) { pipelineFillRace(t, st, table, comp) })
				}
				// Index builds read CSV partitions.
				if comp.share && table == "t" {
					t.Run("index-ddl", func(t *testing.T) { pipelineIndexDDL(t, st, table, comp) })
				}
			})
		}
	}
}

// pipelineSequential: one client, each query twice. The first run is a
// direct pass through every composition and must bill exactly what the
// plain DB bills; a cached repeat reaches the backend with no Select and
// bills nothing but the re-parse, an uncached one bills a direct pass again.
// The last two statements run with their tails pushed (a thresholded top-K,
// an S3-side group-by), and the one before them reads the statistics object
// only to find its keys numeric: the catalog GET is a request on the bill,
// not a Select. Under a sharing window no grouped statement is pushed or
// reads the object — its plain scan is what batches — so there the plain DB
// plans as a sharing one does, and still shares nothing.
func pipelineSequential(t *testing.T, st *store.Store, table string, comp composition) {
	plainCounting := s3api.NewCounting(s3api.NewInProc(st))
	plain := composition{}.open(t, plainCounting, 0)
	if comp.share {
		plain.scanShare = scanshare.New(scanshare.Config{}) // read by the planner; no layer of plain's pipeline
	}
	counting := s3api.NewCounting(s3api.NewInProc(st))
	db := comp.open(t, counting, 0)
	for qi, q := range []string{
		fmt.Sprintf(pipeScan, table),
		fmt.Sprintf("SELECT COUNT(*) AS n, SUM(v) AS s FROM %s WHERE g < 4", table),
		fmt.Sprintf("SELECT g, COUNT(*) AS n FROM %s GROUP BY g ORDER BY g", table),
		fmt.Sprintf("SELECT k, v FROM %s WHERE g < 6 ORDER BY v DESC, k LIMIT 5", table),
		fmt.Sprintf("SELECT tag, COUNT(*) AS n, MAX(v) AS hi FROM %s WHERE g < 6 GROUP BY tag ORDER BY tag", table),
	} {
		var ref [2]bill
		var refSelects [2]int64
		var want *Relation
		for i := range ref {
			before := plainCounting.Selects()
			rel, e, err := plain.QueryContext(context.Background(), q)
			if err != nil {
				t.Fatalf("plain %q: %v", q, err)
			}
			want, ref[i], refSelects[i] = rel, billOf(e), plainCounting.Selects()-before
			if pushed := qi == 3 || (qi == 4 && !comp.share); pushed != (accessOf(e) != nil && accessOf(e).Pushed != "" && accessOf(e).Fallback == "") {
				t.Fatalf("plain %q: access plan %+v, want its tail pushed: %v", q, accessOf(e), pushed)
			}
		}
		for i := range ref {
			before := counting.Selects()
			rel, e, err := db.QueryContext(context.Background(), q)
			if err != nil {
				t.Fatalf("%q run %d: %v", q, i, err)
			}
			identicalRows(t, q, want, rel)
			selects, got := counting.Selects()-before, billOf(e)
			hits, hitBytes := e.Metrics.CacheTotals()
			if comp.cache && i == 1 {
				if selects != 0 {
					t.Errorf("%q warm: %d backend Selects, want 0", q, selects)
				}
				if got.requests != 0 || got.scan != 0 || got.returned != 0 || got.cost.Total() >= ref[1].cost.Total() {
					t.Errorf("%q warm: billed %+v, want only the re-parse (direct pass: %+v)", q, got, ref[1])
				}
				if hits != refSelects[1] || hitBytes != ref[1].returned {
					t.Errorf("%q warm: %d hits / %d bytes, want %d / %d", q, hits, hitBytes, ref[1].requests, ref[1].returned)
				}
				continue
			}
			if selects != refSelects[i] || got != ref[i] || hits != 0 {
				t.Errorf("%q run %d: %d backend Selects, %d hits, billed %+v; a direct pass is %+v", q, i, selects, hits, got, ref[i])
			}
		}
	}
}

// pipelineConcurrent: n identical scans released together reach the backend
// once per partition and split exactly one direct pass between them. With a
// cache on top, the request that led each pass fills, the riders record an
// in-flight dedup, and the next query is all hits.
func pipelineConcurrent(t *testing.T, st *store.Store, table string, comp composition) {
	const n = 4
	q := fmt.Sprintf(pipeScan, table)
	want, refExec, err := composition{}.open(t, s3api.NewInProc(st), 0).QueryContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	ref := billOf(refExec)

	counting := s3api.NewCounting(s3api.NewInProc(st))
	db := comp.open(t, counting, 500*time.Millisecond)
	rels, execs, errs := make([]*Relation, n), make([]*Exec, n), make([]error, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			rels[i], execs[i], errs[i] = db.QueryContext(context.Background(), q)
		}(i)
	}
	close(start)
	wg.Wait()
	if got := counting.Selects(); got != ref.requests {
		t.Errorf("%d concurrent scans reached the backend with %d Selects, want the %d of one scan", n, got, ref.requests)
	}
	var requests, scan, returned float64
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		identicalRows(t, q, want, rels[i])
		if b := billOf(execs[i]); b.requests != 0 {
			t.Errorf("sharer %d was billed %d whole requests besides its shares", i, b.requests)
		}
		r, s, ret, _ := execs[i].Metrics.SharedTotals()
		requests, scan, returned = requests+r, scan+s, returned+ret
	}
	if requests != float64(ref.requests) || scan != float64(ref.scan) || returned != float64(ref.returned) {
		t.Errorf("sharer bills sum to %v requests / %v scanned / %v returned; one direct pass is %d / %d / %d",
			requests, scan, returned, ref.requests, ref.scan, ref.returned)
	}
	if !comp.cache {
		return
	}
	cs, _ := db.ResultCacheStats()
	if cs.Puts != ref.requests || cs.InflightDedup != (n-1)*ref.requests || cs.Hits != 0 {
		t.Errorf("after %d sharers: %+v, want %d leader fills and %d in-flight dedups", n, cs, ref.requests, (n-1)*ref.requests)
	}
	_, e, err := db.QueryContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if hits, _ := e.Metrics.CacheTotals(); hits != ref.requests || counting.Selects() != ref.requests {
		t.Errorf("next query: %d hits, %d backend Selects in total; the leaders' fills should serve all %d", hits, counting.Selects(), ref.requests)
	}
}

// pipelineSingleflight: a pushed aggregate is no scan the batching window
// holds, so identical S3-side group-bys share a pass only while it is in
// flight. Held there, one pass per partition serves all n, each billed 1/n.
func pipelineSingleflight(t *testing.T, st *store.Store, table string, comp composition) {
	const n = 4
	q := fmt.Sprintf("SELECT tag, COUNT(*) AS n, MIN(v) AS lo FROM %s WHERE g < 5 OR g = 5 GROUP BY tag ORDER BY tag", table)
	want, refExec, err := composition{}.open(t, s3api.NewInProc(st), 0).QueryContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if ap := accessOf(refExec); ap == nil || ap.Pushed != PushedGroupBy || ap.Fallback != "" {
		t.Fatalf("the statement did not run as an S3-side group-by: %+v", ap)
	}
	ref := billOf(refExec)

	backend := newHeldSelects(t, st)
	db := comp.open(t, backend, -1)
	rels, execs, errs := make([]*Relation, n), make([]*Exec, n), make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rels[i], execs[i], errs[i] = db.QueryContext(context.Background(), q)
		}(i)
	}
	backend.awaitPasses(t, pipeParts, "the leaders' passes")
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if ss, _ := db.ScanShareStats(); ss.Selects == n*pipeParts {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("only %d of %d requests reached the coordinator", ss.Selects, n*pipeParts)
		}
	}
	backend.release()
	wg.Wait()
	if got := backend.Selects(); got != pipeParts {
		t.Errorf("%d identical group-bys reached the backend with %d Selects, want the %d of one", n, got, pipeParts)
	}
	var requests, scan float64
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		identicalRows(t, q, want, rels[i])
		r, s, _, _ := execs[i].Metrics.SharedTotals()
		requests, scan = requests+r, scan+s
	}
	if requests != pipeParts || scan != float64(ref.scan) {
		t.Errorf("sharer bills sum to %v requests / %v scanned; one direct pass is %d / %d", requests, scan, pipeParts, ref.scan)
	}
}

// pipelineFillRace: a response whose backend pass was in flight when
// InvalidateTable ran is returned to its query but never cached.
func pipelineFillRace(t *testing.T, st *store.Store, table string, comp composition) {
	q := fmt.Sprintf(pipeScan, table)
	backend := newHeldSelects(t, st)
	db := comp.open(t, backend, 0)
	done := make(chan error, 1)
	go func() {
		_, _, err := db.QueryContext(context.Background(), q)
		done <- err
	}()
	backend.awaitPasses(t, pipeParts, "racing query")
	db.InvalidateTable(table)
	backend.release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if cs, _ := db.ResultCacheStats(); cs.Puts != 0 || cs.Entries != 0 {
		t.Fatalf("a fill that raced InvalidateTable landed: %+v", cs)
	}
	before := backend.Selects()
	if _, _, err := db.QueryContext(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	if cs, _ := db.ResultCacheStats(); backend.Selects()-before != pipeParts || cs.Puts != pipeParts {
		t.Fatalf("query after the invalidation: %d backend Selects, stats %+v; want %d fresh fills",
			backend.Selects()-before, cs, pipeParts)
	}
}

// pipelineIndexDDL: CREATE INDEX and DROP INDEX void the share space like
// any other invalidation — a query arriving after the DDL starts its own
// passes instead of riding ones that began before it.
func pipelineIndexDDL(t *testing.T, st *store.Store, table string, comp composition) {
	ctx := context.Background()
	q := fmt.Sprintf(pipeScan, table)
	want, _, err := composition{}.open(t, s3api.NewInProc(st), 0).QueryContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	backend := newHeldSelects(t, st)
	db := comp.open(t, backend, -1)
	rels := make(chan *Relation, 3)
	run := func(what string) {
		go func() {
			rel, _, err := db.QueryContext(context.Background(), q)
			if err != nil {
				t.Error(what, err)
			}
			rels <- rel
		}()
		backend.awaitPasses(t, pipeParts, what)
	}
	run("query before CREATE INDEX")
	if err := db.CreateIndex(ctx, table, "k"); err != nil {
		t.Fatal(err)
	}
	run("query after CREATE INDEX (must not ride the passes in flight before it)")
	if err := db.DropIndex(ctx, table, "k"); err != nil {
		t.Fatal(err)
	}
	run("query after DROP INDEX (must not ride the passes in flight before it)")
	backend.release()
	for i := 0; i < 3; i++ {
		if rel := <-rels; rel != nil {
			identicalRows(t, q, want, rel)
		}
	}
}

// statementRecorder is a backend that records the statement every Select
// reaching it carries, by SQL text: a built request hands over the one it
// carries, one that arrived as text a fresh parse.
type statementRecorder struct {
	s3api.Backend
	mu   sync.Mutex
	seen map[string][]*sqlparse.Select
}

func (r *statementRecorder) Select(ctx context.Context, bucket, key string, req selectengine.Request) (*selectengine.Result, error) {
	sel, _ := req.Statement()
	r.mu.Lock()
	r.seen[req.SQL] = append(r.seen[req.SQL], sel)
	r.mu.Unlock()
	return r.Backend.Select(ctx, bucket, key, req)
}

// TestRequestCompiledOnce: a scan's request is built once, from its
// statement, and every partition's Select under the pipeline carries that
// one statement, through every composition and over both formats — four
// concurrent scans each sharing theirs across their partitions (CI runs this
// under -race). Under a sharing window, scans merged into one pass answer as
// the plain DB does (scanshare's TestMergedMembersRunTheirStatements pins
// that members re-execute on their own statements). A pushed request
// over selectengine.MaxSQLBytes is still refused by storage, for its size,
// as a bad request.
func TestRequestCompiledOnce(t *testing.T) {
	st := pipelineFixture(t)
	ctx := context.Background()
	for _, table := range []string{"t", "c"} {
		for _, comp := range compositions {
			t.Run(comp.name+"-"+table, func(t *testing.T) {
				rec := &statementRecorder{Backend: s3api.NewInProc(st), seen: map[string][]*sqlparse.Select{}}
				db := comp.open(t, rec, -1) // no merging: each scan reaches the backend as built
				var wg sync.WaitGroup
				errs := make([]error, 4)
				for i := range errs {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						_, _, errs[i] = db.QueryContext(ctx, fmt.Sprintf("SELECT k, v FROM %s WHERE g = %d", table, i))
					}(i)
				}
				wg.Wait()
				statements := map[*sqlparse.Select]bool{}
				for i, err := range errs {
					if err != nil {
						t.Fatal(err)
					}
					sql := fmt.Sprintf("SELECT k, v FROM S3Object WHERE (g = %d)", i)
					sels := rec.seen[sql]
					if len(sels) != pipeParts {
						t.Fatalf("%q reached the backend %d times, want once per partition (%d); saw %v", sql, len(sels), pipeParts, rec.seen)
					}
					for _, sel := range sels {
						if sel == nil || sel != sels[0] {
							t.Fatalf("%q: the partitions' requests carry statements %v, want one compiled statement", sql, sels)
						}
					}
					statements[sels[0]] = true
				}
				if len(statements) != len(errs) {
					t.Errorf("%d scans carried %d distinct statements, want one each", len(errs), len(statements))
				}

				huge := fmt.Sprintf("SELECT k FROM %s WHERE tag = '%s'", table, strings.Repeat("x", selectengine.MaxSQLBytes))
				_, _, err := db.QueryContext(ctx, huge)
				if s3api.KindOf(err) != s3api.KindBadRequest || !strings.Contains(fmt.Sprint(err), "SQL expression is") {
					t.Errorf("a pushed request over MaxSQLBytes: %v (kind %q), want storage's size refusal, %q", err, s3api.KindOf(err), s3api.KindBadRequest)
				}

				if !comp.share {
					return
				}
				merging := comp.open(t, rec, 500*time.Millisecond)
				plain := composition{}.open(t, s3api.NewInProc(st), 0)
				qs := []string{fmt.Sprintf(pipeScan, table), fmt.Sprintf("SELECT k FROM %s WHERE g = 6", table)}
				rels := make([]*Relation, len(qs))
				for i, q := range qs {
					wg.Add(1)
					go func(i int, q string) {
						defer wg.Done()
						rels[i], _, errs[i] = merging.QueryContext(ctx, q)
					}(i, q)
				}
				wg.Wait()
				for i, q := range qs {
					if errs[i] != nil {
						t.Fatal(errs[i])
					}
					want, _, err := plain.QueryContext(ctx, q)
					if err != nil {
						t.Fatal(err)
					}
					identicalRows(t, q, want, rels[i])
				}
				if ss, _ := merging.ScanShareStats(); ss.MergedPasses != pipeParts || ss.Fallbacks != 0 {
					t.Errorf("two scans under a window: %+v, want a merged pass per partition and no fallback", ss)
				}
			})
		}
	}
}

// requestLog is a backend that keeps every request reaching it.
type requestLog struct {
	*s3api.Local
	mu   sync.Mutex
	reqs []selectengine.Request
}

func (l *requestLog) Lend(ctx context.Context, bucket, key string, req selectengine.Request, sink func(*selectengine.Result) error) error {
	l.mu.Lock()
	l.reqs = append(l.reqs, req)
	l.mu.Unlock()
	return l.Local.Lend(ctx, bucket, key, req, sink)
}

// take returns the requests kept since the last take.
func (l *requestLog) take() []selectengine.Request {
	l.mu.Lock()
	defer l.mu.Unlock()
	reqs := l.reqs
	l.reqs = nil
	return reqs
}

// TestEveryRequestCarriesItsStatement: every request the engine sends
// carries the statement it was built from — two Statement calls return the
// same pointer, so neither parses — and its SQL parses to an equal
// statement, so an s3http backend, which parses the text, runs what
// in-process storage runs. The requests, over names only quoting reads:
// planned join scans and Bloom probes, planned from statistics objects and
// from remote probes; pushed top-K and group-by tails; index probes; passes
// merged under a sharing window; statements forced onto the filtered scan
// and the IndexScan; and every hand operator.
func TestEveryRequestCarriesItsStatement(t *testing.T) {
	ctx := context.Background()
	st := quotedStore(t)
	log := &requestLog{Local: s3api.NewInProc(st, s3api.WithCapabilities(
		selectengine.Capabilities{AllowGroupBy: true, AllowBloomContains: true}))}
	db, err := Open(quotedBucket, WithBackend("inproc", log), WithScale(cloudsim.Scale{DataRatio: 1e3, PartRatio: 8}))
	if err != nil {
		t.Fatal(err)
	}
	check := func(what string, run func(e *Exec) error) {
		t.Helper()
		if err := run(db.NewExecContext(ctx)); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		reqs := log.take()
		if len(reqs) == 0 {
			t.Errorf("%s sent no request", what)
		}
		for _, req := range reqs {
			stmt, _ := req.Statement()
			if again, _ := req.Statement(); stmt == nil || again != stmt {
				t.Errorf("%s: %.100q carries no statement", what, req.SQL)
				continue
			}
			if back, err := sqlparse.Parse(req.SQL); err != nil || !reflect.DeepEqual(back, stmt) {
				t.Errorf("%s: %.100q parses to another statement (%v)", what, req.SQL, err)
			}
		}
	}
	query := func(sql string) func(*Exec) error {
		return func(*Exec) error {
			_, _, err := db.QueryContext(ctx, sql)
			return err
		}
	}
	joins := []string{
		`SELECT b."order", a.k FROM qa a JOIN qb b ON a.k = b.k2 WHERE a.k < 5`,
		`SELECT a."my col", b.k2 FROM qa a JOIN qb b ON a.k = b."order" WHERE a.k < 5`,
		`SELECT a.k, c."w x" FROM qa a JOIN qb b ON a.k = b.k2 JOIN qc c ON b."order" = c."from" WHERE a.k < 5`,
		`SELECT a.k, c."w x" FROM qa a JOIN qb b ON a.k = b.k2 JOIN qc c ON b."order" = c."from" WHERE a.k < 500 AND c."w x" = 1`,
	}
	for _, q := range joins {
		check(q, query(q))
	}
	check("pushed top-K", query(`SELECT k, "my col" FROM qa WHERE g = 3 ORDER BY "my col" DESC LIMIT 3`))
	check("pushed group-by", query(`SELECT g, COUNT(*) AS n, MAX("my col") AS m FROM qa WHERE k < 1500 GROUP BY g`))
	if err := db.CreateIndex(ctx, "qa", "k"); err != nil {
		t.Fatal(err)
	}
	log.take()
	check("IndexScan", query(`SELECT "my col" FROM qa WHERE k = 7`))
	dropStats(st, quotedBucket, "qa", "qb", "qc")
	db.InvalidateStats()
	for _, q := range joins {
		check("probed remotely: "+q, query(q))
	}

	js := JoinSpec{SQL: `SELECT SUM(a."my col") AS s, COUNT(*) AS n FROM qa a JOIN qb b ON a.k = b."order" WHERE a."my col" < 50`}
	bitwise := js
	bitwise.Bitwise = true
	const groupSQL = `SELECT g, SUM("my col" * 2) AS s, COUNT(*) AS n FROM qa GROUP BY g`
	ops := map[string]func(e *Exec) (*Relation, error){
		"SelectRows": func(e *Exec) (*Relation, error) {
			return e.SelectRows("rows", 0, "qa", `SELECT "my col" FROM S3Object WHERE k < 3`)
		},
		"S3SideGroupBy": func(e *Exec) (*Relation, error) {
			return e.S3SideGroupBy(`SELECT g, SUM("my col" * 2) AS s, COUNT(*) AS n FROM qa WHERE k < 100 GROUP BY g`)
		},
		"HybridGroupBy": func(e *Exec) (*Relation, error) {
			return e.HybridGroupBy(groupSQL, HybridGroupByOptions{S3Groups: 3})
		},
		"HybridGroupBy, partial": func(e *Exec) (*Relation, error) {
			return e.HybridGroupBy(groupSQL, HybridGroupByOptions{S3Groups: 3, UsePartialGroupBy: true})
		},
		"SamplingTopK": func(e *Exec) (*Relation, error) {
			return e.SamplingTopK(`SELECT k, "my col" FROM qa WHERE g = 3 ORDER BY "my col" DESC LIMIT 5`, 0)
		},
		"SamplingTopK, sized": func(e *Exec) (*Relation, error) {
			return e.SamplingTopK(`SELECT * FROM qa ORDER BY "my col" LIMIT 5`, 200)
		},
		"filtered Join":      func(e *Exec) (*Relation, error) { return e.Join(js, StrategyFiltered) },
		"bloom Join":         func(e *Exec) (*Relation, error) { return e.Join(js, StrategyBloom) },
		"bloom Join bitwise": func(e *Exec) (*Relation, error) { return e.Join(bitwise, StrategyBloom) },
		"BloomProbe": func(e *Exec) (*Relation, error) {
			left := relOf([]string{"id"}, [][]string{{"3"}, {"17"}})
			rel, _, err := e.BloomProbe(left, "id", `SELECT "order", v FROM qb WHERE v < 5`, "order", 0.01, false, 1)
			return rel, err
		},
		"IndexFilter": func(e *Exec) (*Relation, error) {
			return e.IndexFilter("SELECT * FROM qa WHERE k <= 3", IndexFilterOptions{MultiRange: true})
		},
	}
	for name, op := range ops {
		check(name, func(e *Exec) error {
			_, err := op(e)
			return err
		})
	}
	for _, f := range []struct{ strategy, sql string }{
		{StrategyFiltered, `SELECT k, "my col" FROM qa WHERE "my col" < 50`},
		{StrategyFiltered, `SELECT g, SUM("my col" * 2) AS s, COUNT(*) AS n FROM qa WHERE k < 100 GROUP BY g`},
		{StrategyIndexScan, `SELECT "my col" FROM qa WHERE k < 4 AND "my col" > 0`},
	} {
		check("forced "+f.strategy+": "+f.sql, func(*Exec) error {
			_, _, err := db.QueryForced(ctx, f.sql, f.strategy)
			return err
		})
	}
	check("SelectAgg", func(e *Exec) error {
		_, err := e.SelectAgg("agg", 0, "qa", `SELECT MAX("my col") FROM S3Object`)
		return err
	})

	// Two scans under a sharing window merge into one pass per partition.
	db, err = Open(quotedBucket, WithBackend("inproc", log), WithScanSharing(scanshare.Config{Window: 500 * time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	check("merged passes", func(*Exec) error {
		var wg sync.WaitGroup
		errs := make([]error, 2)
		for i, q := range []string{`SELECT "order" FROM qb WHERE k2 < 5`, `SELECT "order" FROM qb WHERE k2 > 990`} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, _, errs[i] = db.QueryContext(ctx, q)
			}()
		}
		wg.Wait()
		return errors.Join(errs...)
	})
	if ss, _ := db.ScanShareStats(); ss.MergedPasses != 4 || ss.Fallbacks != 0 {
		t.Errorf("two scans under a window: %+v, want a merged pass per partition and no fallback", ss)
	}
}

// joinFixture writes three tables for joins, as CSV (jc, jo, jl) and as
// columnar twins (jc_c, jo_c, jl_c), with an index on jl's l_qty: customers
// c_ck, c_seg, c_code, c_bal; orders o_ok, o_ck, o_od, o_code, o_price; and
// lines l_ok, l_qty, l_sd, l_code, l_price. The *_code columns are text keys
// ("x17"), which a Bloom filter cannot hash.
func joinFixture(t *testing.T) *store.Store {
	t.Helper()
	st := store.New()
	date := func(i int) string { return fmt.Sprintf("1995-%02d-%02d", 1+i%12, 1+i%28) }
	tables := []struct {
		name  string
		cols  []string
		kinds []value.Kind
		n     int
		row   func(i int) []string
	}{
		{"jc", []string{"c_ck", "c_seg", "c_code", "c_bal"}, []value.Kind{value.KindInt, value.KindString, value.KindString, value.KindFloat}, 60,
			func(i int) []string {
				return []string{fmt.Sprint(i), string(rune('A' + i%3)), fmt.Sprintf("x%d", i), fmt.Sprint(float64(i%17) * 2.5)}
			}},
		{"jo", []string{"o_ok", "o_ck", "o_od", "o_code", "o_price"}, []value.Kind{value.KindInt, value.KindInt, value.KindString, value.KindString, value.KindFloat}, 240,
			func(i int) []string {
				return []string{fmt.Sprint(i), fmt.Sprint(i % 60), date(i), fmt.Sprintf("x%d", i%60), fmt.Sprint(float64(i%31) * 1.25)}
			}},
		{"jl", []string{"l_ok", "l_qty", "l_sd", "l_code", "l_price"}, []value.Kind{value.KindInt, value.KindInt, value.KindString, value.KindString, value.KindFloat}, 480,
			func(i int) []string {
				return []string{fmt.Sprint(i % 240), fmt.Sprint(i % 7), date(i * 5), fmt.Sprintf("x%d", i%90), fmt.Sprint(float64(i%13) * 0.5)}
			}},
	}
	for _, tbl := range tables {
		var rows [][]string
		var typed [][]value.Value
		schema := make(colformat.Schema, len(tbl.cols))
		for j, c := range tbl.cols {
			schema[j] = colformat.ColumnDef{Name: c, Kind: tbl.kinds[j]}
		}
		for i := 0; i < tbl.n; i++ {
			row := tbl.row(i)
			rows = append(rows, row)
			typed = append(typed, make([]value.Value, len(row)))
			for j, cell := range row {
				if typed[i][j] = value.FromCSV(cell); tbl.kinds[j] == value.KindString {
					typed[i][j] = value.Str(cell)
				}
			}
		}
		if err := PartitionTable(context.Background(), st, pipeBucket, tbl.name, tbl.cols, rows, 3); err != nil {
			t.Fatal(err)
		}
		if err := PartitionTableColumnar(st, pipeBucket, tbl.name+"_c", schema, typed, 3, 16, true); err != nil {
			t.Fatal(err)
		}
	}
	db := composition{}.open(t, s3api.NewInProc(st), 0)
	if err := db.CreateIndex(context.Background(), "jl", "l_qty"); err != nil {
		t.Fatal(err)
	}
	return st
}

// runForced plans sql on db, forces the plan's join step to strategy and
// runs it, returning the answer and the plan it ran.
func runForced(t *testing.T, db *DB, sql string, step int, strategy string) (*Relation, *QueryPlan) {
	t.Helper()
	sel, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	e := db.NewExecContext(context.Background())
	p, err := e.planSelect(sel, "")
	if err != nil {
		t.Fatalf("%s: planning: %v", sql, err)
	}
	if strategy == StrategyIndexScan && p.Scans[p.Steps[step].scan].Index == nil {
		t.Fatalf("%s: join %d has no index candidate to force", sql, step+1)
	}
	p.Steps[step].Strategy = strategy
	rel, err := e.runPlan(p)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return rel, p
}

// baselineAnswer answers sql the baseline way: its planned first join
// through the baseline join, which loads both tables whole and
// filters them on the server, every later table loaded whole, filtered on
// the server and hash-joined in, then the residual and the server's tail.
func baselineAnswer(t *testing.T, db *DB, sql string) *Relation {
	t.Helper()
	sel, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	e := db.NewExecContext(context.Background())
	p, err := e.planSelect(sel, "")
	if err != nil {
		t.Fatal(err)
	}
	first := p.Steps[0]
	rel, _, err := e.baselineJoin(join{left: p.Scans[first.buildIdx], right: p.Scans[first.probeIdx],
		leftKey: first.BuildKey, rightKey: first.ProbeKey})
	for _, st := range p.Steps[1:] {
		var right *Relation
		if err == nil {
			right, _, err = e.serverSideFilter(Load{Table: p.Scans[st.scan].Table, Where: p.Scans[st.scan].Filter}, nil)
		}
		if err == nil {
			rel, err = HashJoin(rel, right, st.BuildKey, st.ProbeKey)
		}
	}
	if err == nil {
		rel, err = Filter(rel, p.Residual)
	}
	if err == nil {
		rel, err = e.finishTail(p.Sel, rel, nil, nil)
	}
	if err != nil {
		t.Fatalf("%s: baseline: %v", sql, err)
	}
	return rel
}

// TestJoinPathsShipOnlyServerColumns: a column that only its scan's pushed
// filter reads stays in storage on every path a join step can take — the
// Bloom build and probe, a chain's filtered scan, Bloom probe and IndexScan,
// and a Bloom join over a text key falling back to the baseline join (first
// join) or a filtered scan (chain) — and so does each last join whose rows
// meet a residual and a grouped tail as they decode. Each statement, forced
// down its path, answers as the baseline join does, cold and warm, through
// every select-pipeline composition over CSV and columnar tables (the
// index, and so the IndexScan, is CSV's only).
func TestJoinPathsShipOnlyServerColumns(t *testing.T) {
	st := joinFixture(t)
	const (
		pair  = "SELECT o.o_ok, o.o_price FROM jc%[1]s c JOIN jo%[1]s o ON %[2]s WHERE c.c_seg = 'A' AND o.o_od < '1995-06-01' ORDER BY o.o_ok"
		chain = "SELECT c.c_ck, o.o_ok, l.l_price FROM jc%[1]s c JOIN jo%[1]s o ON c.c_ck = o.o_ck JOIN jl%[1]s l ON %[2]s " +
			"WHERE c.c_seg = 'A' AND %[3]s ORDER BY c.c_ck, o.o_ok, l.l_price"
		// The last join's rows meet a residual and fold into the groups.
		pairTail = "SELECT o.o_ck, COUNT(*) AS n, SUM(o.o_price) AS s FROM jc%[1]s c JOIN jo%[1]s o ON %[2]s " +
			"WHERE c.c_seg = 'A' AND o.o_od < '1995-06-01' AND (c.c_bal > 10 OR o.o_price < 20) GROUP BY o.o_ck ORDER BY o.o_ck"
		chainTail = "SELECT c.c_ck, COUNT(*) AS n, SUM(l.l_price) AS s FROM jc%[1]s c JOIN jo%[1]s o ON c.c_ck = o.o_ck JOIN jl%[1]s l ON %[2]s " +
			"WHERE c.c_seg = 'A' AND %[3]s AND (l.l_price > 3 OR o.o_price < 10) GROUP BY c.c_ck ORDER BY c.c_ck"
	)
	cases := []struct {
		name, sql     string // sql takes the tables' suffix
		step          int    // the join step forced
		strategy, ran string // the strategy forced, and the one that ran
		filterOnly    []string
	}{
		{"bloom", fmt.Sprintf(pair, "%[1]s", "c.c_ck = o.o_ck"), 0, StrategyBloom, StrategyBloom, []string{"c_seg", "o_od"}},
		{"bloom-text-key", fmt.Sprintf(pair, "%[1]s", "c.c_code = o.o_code"), 0, StrategyBloom, StrategyBaseline, []string{"c_seg", "o_od"}},
		{"chain-filtered", fmt.Sprintf(chain, "%[1]s", "o.o_ok = l.l_ok", "l.l_sd > '1995-06-01'"), 1, StrategyFiltered, StrategyFiltered, []string{"c_seg", "l_sd"}},
		{"chain-bloom", fmt.Sprintf(chain, "%[1]s", "o.o_ok = l.l_ok", "l.l_sd > '1995-06-01'"), 1, StrategyBloom, StrategyBloom, []string{"c_seg", "l_sd"}},
		{"chain-bloom-text-key", fmt.Sprintf(chain, "%[1]s", "o.o_code = l.l_code", "l.l_sd > '1995-06-01'"), 1, StrategyBloom, StrategyFiltered, []string{"c_seg", "l_sd"}},
		{"chain-indexscan", fmt.Sprintf(chain, "%[1]s", "o.o_ok = l.l_ok", "l.l_qty <= 2"), 1, StrategyIndexScan, StrategyIndexScan, []string{"c_seg", "l_qty"}},
		{"bloom-tail", fmt.Sprintf(pairTail, "%[1]s", "c.c_ck = o.o_ck"), 0, StrategyBloom, StrategyBloom, []string{"c_seg", "o_od"}},
		{"bloom-text-key-tail", fmt.Sprintf(pairTail, "%[1]s", "c.c_code = o.o_code"), 0, StrategyBloom, StrategyBaseline, []string{"c_seg", "o_od"}},
		{"chain-filtered-tail", fmt.Sprintf(chainTail, "%[1]s", "o.o_ok = l.l_ok", "l.l_sd > '1995-06-01'"), 1, StrategyFiltered, StrategyFiltered, []string{"c_seg", "l_sd"}},
		{"chain-bloom-tail", fmt.Sprintf(chainTail, "%[1]s", "o.o_ok = l.l_ok", "l.l_sd > '1995-06-01'"), 1, StrategyBloom, StrategyBloom, []string{"c_seg", "l_sd"}},
		{"chain-indexscan-tail", fmt.Sprintf(chainTail, "%[1]s", "o.o_ok = l.l_ok", "l.l_qty <= 2"), 1, StrategyIndexScan, StrategyIndexScan, []string{"c_seg", "l_qty"}},
	}
	plain := composition{}.open(t, s3api.NewInProc(st), 0)
	for _, suffix := range []string{"", "_c"} {
		for _, comp := range compositions {
			db := comp.open(t, s3api.NewInProc(st), 0)
			for _, c := range cases {
				if c.strategy == StrategyIndexScan && suffix != "" {
					continue
				}
				sql := fmt.Sprintf(c.sql, suffix)
				want := render(baselineAnswer(t, plain, sql), true)
				for _, run := range []string{"cold", "warm"} {
					rel, p := runForced(t, db, sql, c.step, c.strategy)
					what := fmt.Sprintf("%s %s%s %s", comp.name, c.name, suffix, run)
					if got := render(rel, true); got != want {
						t.Errorf("%s: answers\n%s\nthe baseline join answers\n%s", what, got, want)
					}
					if p.Steps[c.step].Strategy != c.ran {
						t.Errorf("%s: ran %s, want %s", what, p.Steps[c.step].Strategy, c.ran)
					}
					for _, sc := range p.Scans {
						if sc.Project == nil || slices.ContainsFunc(c.filterOnly, func(col string) bool { return slices.Contains(sc.Project, col) }) {
							t.Errorf("%s: scan %s ships %q, which must leave out %q", what, sc.Name(), sc.Project, c.filterOnly)
						}
					}
				}
			}
		}
	}
}
