package scanshare

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pushdowndb/internal/csvx"
	"pushdowndb/internal/selectengine"
	"pushdowndb/internal/sqlparse"
)

// testData builds the CSV object every test scans: k INT, g INT, v INT.
func testData() []byte {
	var rows [][]string
	for i := 0; i < 120; i++ {
		rows = append(rows, []string{
			fmt.Sprint(i), fmt.Sprint(i % 7), fmt.Sprint(i * 3),
		})
	}
	return csvx.Encode([]string{"k", "g", "v"}, rows)
}

// selectorFunc adapts a function to the s3api.Selector the coordinator
// layers over; every call is one backend pass: req run over the object the
// function returns, lent as storage lends it, and the body overwritten once
// the sink returns, so a sharer reading a lent body after that sees it.
type selectorFunc func(ctx context.Context, req selectengine.Request) ([]byte, error)

func (f selectorFunc) Lend(ctx context.Context, _, _ string, req selectengine.Request, sink func(*selectengine.Result) error) error {
	data, err := f(ctx, req)
	if err != nil {
		return err
	}
	return selectengine.Run(data, req, func(res *selectengine.Result) error {
		err := sink(res)
		for i := range res.Body {
			res.Body[i] = '#'
		}
		return err
	})
}

// share runs one request on the test object through c layered over fn and
// returns what it lent, owned.
func share(c *Coordinator, fn selectorFunc, req selectengine.Request) (res *selectengine.Result, err error) {
	err = c.Over("s3", fn).Lend(context.Background(), "b", "t/part0", req, func(r *selectengine.Result) error {
		res = r.Own()
		return nil
	})
	return res, err
}

// backend returns a selector over data that counts calls and records
// every pushed SQL.
func backend(data []byte, calls *atomic.Int64, sqls *[]string, mu *sync.Mutex) selectorFunc {
	return func(ctx context.Context, req selectengine.Request) ([]byte, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		calls.Add(1)
		if sqls != nil {
			mu.Lock()
			*sqls = append(*sqls, req.SQL)
			mu.Unlock()
		}
		return data, nil
	}
}

func scanReq(sql string) selectengine.Request {
	return selectengine.Request{SQL: sql, HasHeader: true}
}

// runConcurrent drives one coordinated Select per request from its own
// goroutine, released together, and returns the results in request order.
func runConcurrent(t *testing.T, c *Coordinator, fn selectorFunc, reqs []selectengine.Request) []*selectengine.Result {
	t.Helper()
	outs := make([]*selectengine.Result, len(reqs))
	errs := make([]error, len(reqs))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i, req := range reqs {
		wg.Add(1)
		go func(i int, req selectengine.Request) {
			defer wg.Done()
			<-start
			outs[i], errs[i] = share(c, fn, req)
		}(i, req)
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	return outs
}

// expectRows asserts a result's rows match a direct execution of req.
func expectRows(t *testing.T, data []byte, req selectengine.Request, out *selectengine.Result) {
	t.Helper()
	want, err := selectengine.Execute(data, req)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out.Columns, want.Columns) {
		t.Fatalf("columns %v, want %v", out.Columns, want.Columns)
	}
	if string(out.Body) != string(want.Body) || out.Stats.RowsReturned != want.Stats.RowsReturned {
		t.Fatalf("body differs from direct execution:\n got %q\nwant %q", out.Body, want.Body)
	}
}

func TestIdenticalRequestsCoalesce(t *testing.T) {
	data := testData()
	var calls atomic.Int64
	c := New(Config{Window: 200 * time.Millisecond, MaxBatch: 8})
	req := scanReq("SELECT k, v FROM S3Object WHERE g = 3")
	reqs := []selectengine.Request{req, req, req, req}
	outs := runConcurrent(t, c, backend(data, &calls, nil, nil), reqs)
	if got := calls.Load(); got != 1 {
		t.Fatalf("backend calls = %d, want 1", got)
	}
	leaders := 0
	for i, out := range outs {
		expectRows(t, data, req, out)
		if out.Served.Sharers != 4 {
			t.Fatalf("result %d sharers = %d, want 4", i, out.Served.Sharers)
		}
		if out.Served.LocalRows != 0 {
			t.Fatalf("result %d re-filtered rows of a verbatim pass", i)
		}
		if !out.Served.Coalesced {
			leaders++
		}
	}
	if leaders != 1 {
		t.Fatalf("leaders = %d, want exactly 1", leaders)
	}
	st := c.Stats()
	if st.Selects != 4 || st.BackendSelects != 1 || st.Coalesced != 3 ||
		st.SharedPasses != 1 || st.MergedPasses != 0 || st.Sharers != 4 {
		t.Fatalf("stats = %+v", st)
	}
	if st.ScanBytesSaved != 3*int64(len(data)) {
		t.Fatalf("ScanBytesSaved = %d, want %d", st.ScanBytesSaved, 3*len(data))
	}
}

func TestPredicateMergeRoutesExactRows(t *testing.T) {
	data := testData()
	var (
		calls atomic.Int64
		sqls  []string
		mu    sync.Mutex
	)
	c := New(Config{Window: 200 * time.Millisecond, MaxBatch: 8})
	reqs := []selectengine.Request{
		scanReq("SELECT k, v FROM S3Object WHERE g = 1"),
		scanReq("SELECT k FROM S3Object WHERE g = 2"),
		scanReq("SELECT v, k FROM S3Object WHERE g = 3 AND v > 30"),
	}
	outs := runConcurrent(t, c, backend(data, &calls, &sqls, &mu), reqs)
	if got := calls.Load(); got != 1 {
		t.Fatalf("backend calls = %d, want 1 merged pass", got)
	}
	if len(sqls) != 1 || !strings.Contains(sqls[0], " OR ") {
		t.Fatalf("pushed SQL = %q, want one OR-merged statement", sqls)
	}
	for i, out := range outs {
		expectRows(t, data, reqs[i], out)
		if out.Served.Sharers != 3 {
			t.Fatalf("result %d = %+v, want 3 sharers", i, out.Served)
		}
		if out.Served.LocalRows == 0 {
			t.Fatalf("result %d has no local re-filter rows", i)
		}
	}
	st := c.Stats()
	if st.MergedPasses != 1 || st.SharedPasses != 1 || st.Coalesced != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSingleflightOnlyModeDoesNotMerge(t *testing.T) {
	data := testData()
	var calls atomic.Int64
	c := New(Config{Window: -1})
	gate := make(chan struct{})
	entered := make(chan struct{}, 8)
	fn := selectorFunc(func(ctx context.Context, req selectengine.Request) ([]byte, error) {
		calls.Add(1)
		entered <- struct{}{}
		<-gate
		return data, nil
	})
	reqA := scanReq("SELECT k FROM S3Object WHERE g = 1")
	reqB := scanReq("SELECT k FROM S3Object WHERE g = 2")
	var wg sync.WaitGroup
	outs := make([]*selectengine.Result, 3)
	run := func(i int, req selectengine.Request) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			outs[i], err = share(c, fn, req)
			if err != nil {
				t.Error(err)
			}
		}()
	}
	run(0, reqA)
	<-entered // A's pass is in flight
	run(1, reqB)
	<-entered // B got its own pass: distinct predicates do not merge
	run(2, reqA)
	// Give the identical request time to join A's in-flight pass rather
	// than racing the gate release.
	time.Sleep(20 * time.Millisecond)
	close(gate)
	wg.Wait()
	if got := calls.Load(); got != 2 {
		t.Fatalf("backend calls = %d, want 2 (identical coalesces, distinct does not merge)", got)
	}
	if outs[0].Served.Sharers != 2 || outs[2].Served.Sharers != 2 {
		t.Fatalf("identical requests did not coalesce: %+v / %+v", outs[0].Served, outs[2].Served)
	}
	if outs[1].Served.Sharers != 1 {
		t.Fatalf("distinct request unexpectedly shared: %+v", outs[1].Served)
	}
	expectRows(t, data, reqA, outs[2])
}

func TestAggregatesCoalesceButNeverMerge(t *testing.T) {
	data := testData()
	var calls atomic.Int64
	c := New(Config{Window: 200 * time.Millisecond})
	gate := make(chan struct{})
	entered := make(chan struct{}, 8)
	fn := selectorFunc(func(ctx context.Context, req selectengine.Request) ([]byte, error) {
		calls.Add(1)
		entered <- struct{}{}
		<-gate
		return data, nil
	})
	req := scanReq("SELECT COUNT(*), SUM(v) FROM S3Object WHERE g < 4")
	var wg sync.WaitGroup
	outs := make([]*selectengine.Result, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var err error
			outs[i], err = share(c, fn, req)
			if err != nil {
				t.Error(err)
			}
		}(i)
		if i == 0 {
			<-entered // aggregate passes fire immediately, no window wait
		}
	}
	time.Sleep(20 * time.Millisecond)
	close(gate)
	wg.Wait()
	if got := calls.Load(); got != 1 {
		t.Fatalf("backend calls = %d, want 1", got)
	}
	if c.Stats().MergedPasses != 0 {
		t.Fatal("aggregate requests must never ride a merged pass")
	}
	if outs[0].Served.Sharers != 2 {
		t.Fatalf("sharers = %d, want 2", outs[0].Served.Sharers)
	}
	expectRows(t, data, req, outs[1])
}

func TestInvalidationSplitsShares(t *testing.T) {
	data := testData()
	var calls atomic.Int64
	c := New(Config{Window: -1})
	gate := make(chan struct{})
	entered := make(chan struct{}, 8)
	fn := selectorFunc(func(ctx context.Context, req selectengine.Request) ([]byte, error) {
		calls.Add(1)
		entered <- struct{}{}
		<-gate
		return data, nil
	})
	req := scanReq("SELECT k FROM S3Object WHERE g = 1")
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := share(c, fn, req); err != nil {
				t.Error(err)
			}
		}()
		if i == 0 {
			<-entered
			c.Invalidate() // the second arrival must not join the stale pass
		}
	}
	<-entered // the second arrival started its own pass
	close(gate)
	wg.Wait()
	if got := calls.Load(); got != 2 {
		t.Fatalf("backend calls = %d, want 2 after Invalidate between arrivals", got)
	}

}

func TestMergedPassFailureFallsBackPerWaiter(t *testing.T) {
	data := testData()
	var calls atomic.Int64
	c := New(Config{Window: 200 * time.Millisecond})
	boom := errors.New("merged pass rejected")
	fn := selectorFunc(func(ctx context.Context, req selectengine.Request) ([]byte, error) {
		calls.Add(1)
		if strings.Contains(req.SQL, " OR ") {
			return nil, boom
		}
		return data, nil
	})
	reqs := []selectengine.Request{
		scanReq("SELECT k FROM S3Object WHERE g = 1"),
		scanReq("SELECT k FROM S3Object WHERE g = 2"),
	}
	outs := runConcurrent(t, c, fn, reqs)
	for i, out := range outs {
		expectRows(t, data, reqs[i], out)
		if out.Served.Sharers != 1 || out.Served.Coalesced || out.Served.LocalRows != 0 {
			t.Fatalf("fallback result %d = %+v, want a solo pass", i, out.Served)
		}
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("backend calls = %d, want 3 (1 failed merged pass + 2 fallbacks)", got)
	}
	st := c.Stats()
	if st.Fallbacks != 2 {
		t.Fatalf("Fallbacks = %d, want 2", st.Fallbacks)
	}
}

func TestMaxBatchFiresEarly(t *testing.T) {
	data := testData()
	var calls atomic.Int64
	// A batch of 2 fills instantly; the pass must not wait out the long
	// window once full.
	c := New(Config{Window: time.Minute, MaxBatch: 2})
	reqs := []selectengine.Request{
		scanReq("SELECT k FROM S3Object WHERE g = 1"),
		scanReq("SELECT k FROM S3Object WHERE g = 2"),
	}
	start := time.Now()
	outs := runConcurrent(t, c, backend(data, &calls, nil, nil), reqs)
	if elapsed := time.Since(start); elapsed > 20*time.Second {
		t.Fatalf("full batch waited %v, should have fired before the window", elapsed)
	}
	for i, out := range outs {
		expectRows(t, data, reqs[i], out)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("backend calls = %d, want 1", got)
	}
}

func TestMergeRequestShapes(t *testing.T) {
	mk := func(sql string) *entry {
		req := scanReq(sql)
		sel := mergeable(req)
		if sel == nil {
			t.Fatalf("test request %q is not mergeable", sql)
		}
		return &entry{req: req, sel: sel}
	}
	cases := []struct {
		name    string
		entries []*entry
		want    string
	}{
		{
			"column union with OR of filters",
			[]*entry{mk("SELECT a FROM S3Object WHERE b = 1"), mk("SELECT c FROM S3Object WHERE a = 2")},
			"SELECT a, b, c FROM S3Object WHERE ((b = 1) OR (a = 2))",
		},
		{
			"case-insensitive column dedup",
			[]*entry{mk("SELECT A FROM S3Object WHERE a = 1"), mk("SELECT a FROM S3Object WHERE a = 2")},
			"SELECT A FROM S3Object WHERE ((a = 1) OR (a = 2))",
		},
		{
			"star wins the projection",
			[]*entry{mk("SELECT * FROM S3Object WHERE a = 1"), mk("SELECT b FROM S3Object WHERE c = 2")},
			"SELECT * FROM S3Object WHERE ((a = 1) OR (c = 2))",
		},
		{
			"unfiltered entry drops the WHERE",
			[]*entry{mk("SELECT a FROM S3Object"), mk("SELECT b FROM S3Object WHERE a = 1")},
			"SELECT a, b FROM S3Object",
		},
		{
			"names that need quoting print quoted",
			[]*entry{mk(`SELECT "my col" FROM S3Object WHERE "order" < 5`), mk(`SELECT "my col" FROM S3Object WHERE k > 9`)},
			`SELECT "my col", "order", k FROM S3Object WHERE (("order" < 5) OR (k > 9))`,
		},
	}
	for _, tc := range cases {
		got := mergeRequest(tc.entries)
		if got.SQL != tc.want {
			t.Errorf("%s: merged SQL = %q, want %q", tc.name, got.SQL, tc.want)
		}
		// The statement attached is the one its text parses to: an s3http
		// backend runs what in-process storage runs.
		stmt, _ := got.Statement()
		if back, err := sqlparse.Parse(got.SQL); err != nil || !reflect.DeepEqual(back, stmt) {
			t.Errorf("%s: %q parses to %v (%v), not the statement attached", tc.name, got.SQL, back, err)
		}
	}
}

// TestMergeOverQuotedColumn: scans projecting a column whose name needs
// quoting merge into one backend pass, with no fallback, and each answers
// as it does alone.
func TestMergeOverQuotedColumn(t *testing.T) {
	var rows [][]string
	for i := 0; i < 200; i++ {
		rows = append(rows, []string{fmt.Sprint(i), fmt.Sprint(i * 2)})
	}
	data := csvx.Encode([]string{"k", "my col"}, rows)
	var calls atomic.Int64
	c := New(Config{Window: 200 * time.Millisecond, MaxBatch: 8})
	reqs := []selectengine.Request{
		scanReq(`SELECT "my col" FROM S3Object WHERE k < 5`),
		scanReq(`SELECT "my col" FROM S3Object WHERE k > 190`),
	}
	outs := runConcurrent(t, c, backend(data, &calls, nil, nil), reqs)
	for i, out := range outs {
		expectRows(t, data, reqs[i], out)
	}
	if st := c.Stats(); calls.Load() != 1 || st.BackendSelects != 1 || st.Fallbacks != 0 {
		t.Fatalf("backend calls %d, stats %+v: want one merged pass and no fallback", calls.Load(), st)
	}
}

func TestMergeableRejectsComplexShapes(t *testing.T) {
	for _, sql := range []string{
		"SELECT COUNT(*) FROM S3Object",
		"SELECT a FROM S3Object GROUP BY a",
		"SELECT a FROM S3Object ORDER BY a",
		"SELECT a FROM S3Object LIMIT 5",
	} {
		if mergeable(scanReq(sql)) != nil {
			t.Errorf("mergeable(%q) = non-nil, want nil", sql)
		}
	}
	if mergeable(selectengine.Request{
		SQL: "SELECT a FROM S3Object", HasHeader: true,
		ScanRange: &selectengine.ScanRange{Start: 0, End: 10},
	}) != nil {
		t.Error("ranged scans must not merge")
	}
	if mergeable(scanReq("SELECT a + 1, b FROM S3Object WHERE a < 3")) == nil {
		t.Error("non-aggregate expressions are merge-eligible")
	}
}

// TestMergedMembersRunTheirStatements: the coordinator parses no request of
// its own. It merges requests by the statements they carry, and
// each member re-executes on its own: members whose text is no SQL at all
// (their identity only) merge into one pass and answer as their statements
// do alone, with no fallback.
func TestMergedMembersRunTheirStatements(t *testing.T) {
	data := testData()
	var calls atomic.Int64
	c := New(Config{Window: 200 * time.Millisecond, MaxBatch: 8})
	compiled := func(sql, text string) selectengine.Request {
		stmt, err := sqlparse.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		req := selectengine.NewRequest(stmt, true, selectengine.Capabilities{})
		req.SQL = text
		return req
	}
	reqs := []selectengine.Request{
		compiled("SELECT k, v FROM S3Object WHERE g = 1", "member 1"),
		compiled("SELECT k FROM S3Object WHERE g = 2", "member 2"),
	}
	outs := runConcurrent(t, c, backend(data, &calls, nil, nil), reqs)
	if got := calls.Load(); got != 1 {
		t.Fatalf("backend calls = %d, want 1 merged pass", got)
	}
	for i, out := range outs {
		expectRows(t, data, reqs[i], out)
	}
	if st := c.Stats(); st.MergedPasses != 1 || st.Fallbacks != 0 {
		t.Fatalf("stats = %+v, want one merged pass and no fallback", st)
	}
}
