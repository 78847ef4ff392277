package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"pushdowndb/internal/engine"
	"pushdowndb/internal/localfs"
	"pushdowndb/internal/s3api"
	"pushdowndb/internal/store"
)

// testTables builds the deterministic two-table dataset every server test
// queries: 200 orders across 40 customers, partitioned 4 ways.
func testTables() (bucket string, tables map[string]struct {
	header []string
	rows   [][]string
}) {
	orders := make([][]string, 0, 200)
	for i := 0; i < 200; i++ {
		orders = append(orders, []string{
			fmt.Sprint(i + 1),              // o_id
			fmt.Sprint(i%40 + 1),           // o_cust
			fmt.Sprint((i*37 + 13) % 1000), // o_price
			fmt.Sprint(i%7 + 1),            // o_qty
		})
	}
	customers := make([][]string, 0, 40)
	for i := 0; i < 40; i++ {
		customers = append(customers, []string{
			fmt.Sprint(i + 1),           // c_id
			fmt.Sprintf("cust-%03d", i), // c_name
			fmt.Sprint((i * 71) % 500),  // c_balance
		})
	}
	return "shop", map[string]struct {
		header []string
		rows   [][]string
	}{
		"orders":    {header: []string{"o_id", "o_cust", "o_price", "o_qty"}, rows: orders},
		"customers": {header: []string{"c_id", "c_name", "c_balance"}, rows: customers},
	}
}

// testQueries is the corpus every battery round runs: pushed single-table
// scans, grouped aggregation, a join, and a whole-table aggregate.
var testQueries = []string{
	"SELECT o_id, o_price FROM orders WHERE o_price > 500 ORDER BY o_id",
	"SELECT o_cust, COUNT(*) AS n, SUM(o_price) AS total FROM orders GROUP BY o_cust ORDER BY o_cust",
	"SELECT COUNT(*) AS n, SUM(o_qty) AS q FROM orders",
	"SELECT c_name, o_price FROM customers c JOIN orders o ON c.c_id = o.o_cust " +
		"WHERE c_balance < 300 ORDER BY o_price, c_name LIMIT 10",
}

// fixture is one running server plus a direct DB over the same bytes.
type fixture struct {
	base     string // client base URL
	srv      *Server
	db       *engine.DB // the server's shared DB
	direct   *engine.DB // an independent DB over the same objects, no cache
	counting *s3api.Counting
	fault    *s3api.Fault
	audit    *bytes.Buffer
	store    *store.Store // the objects, for the "inproc" flavor
}

// newFixture loads the test tables onto the named backend flavor
// ("inproc" or "localfs"), starts a server over them (result cache on,
// audit log captured, fault wrapper armed-but-idle) and returns the
// running pieces. The server is shut down in t.Cleanup.
func newFixture(t *testing.T, flavor string, cfg Config) *fixture {
	t.Helper()
	bucket, tables := testTables()
	var raw s3api.Backend
	var st *store.Store
	switch flavor {
	case "inproc":
		st = store.New()
		for name, tb := range tables {
			if err := engine.PartitionTable(context.Background(), st, bucket, name, tb.header, tb.rows, 4); err != nil {
				t.Fatal(err)
			}
		}
		raw = s3api.NewInProc(st)
	case "localfs":
		b := localfs.New(t.TempDir())
		for name, tb := range tables {
			if err := engine.PartitionTableTo(context.Background(), b, bucket, name, tb.header, tb.rows, 4); err != nil {
				t.Fatal(err)
			}
		}
		raw = b
	default:
		t.Fatalf("unknown backend flavor %q", flavor)
	}
	counting := s3api.NewCounting(raw)
	fault := s3api.NewFault(counting)
	db, err := engine.Open(bucket,
		engine.WithBackend("primary", fault),
		engine.WithResultCache(64<<20))
	if err != nil {
		t.Fatal(err)
	}
	direct, err := engine.Open(bucket, engine.WithBackend("primary", raw))
	if err != nil {
		t.Fatal(err)
	}
	audit := &bytes.Buffer{}
	if cfg.AuditLog == nil {
		cfg.AuditLog = &syncWriter{w: audit}
	}
	srv := New(db, cfg)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-done; err != nil && !errors.Is(err, http.ErrServerClosed) {
			t.Errorf("serve: %v", err)
		}
	})
	return &fixture{
		base:     "http://" + l.Addr().String(),
		srv:      srv,
		db:       db,
		direct:   direct,
		counting: counting,
		fault:    fault,
		audit:    audit,
		store:    st,
	}
}

// syncWriter serializes audit writes against test reads.
type syncWriter struct {
	mu sync.Mutex
	w  *bytes.Buffer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// directAnswers runs the corpus on the independent DB and returns the
// rendered relations.
func directAnswers(t *testing.T, db *engine.DB) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, q := range testQueries {
		rel, _, err := db.QueryContext(context.Background(), q)
		if err != nil {
			t.Fatalf("direct %q: %v", q, err)
		}
		out[q] = rel.String()
	}
	return out
}

// TestConcurrentClientsMatchDirect is the battery's core: N concurrent
// clients hammer the shared server (InProc and localfs backends alike)
// and every response must be byte-identical to the same query run
// directly on an independent DB over the same objects. Run under -race
// in CI, this doubles as the data-race check on the shared DB, cache and
// ledger.
func TestConcurrentClientsMatchDirect(t *testing.T) {
	for _, flavor := range []string{"inproc", "localfs"} {
		t.Run(flavor, func(t *testing.T) {
			fx := newFixture(t, flavor, Config{})
			want := directAnswers(t, fx.direct)
			const clients, rounds = 8, 3
			var wg sync.WaitGroup
			errCh := make(chan error, clients)
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					cl := NewClient(fx.base)
					cl.Tenant = fmt.Sprintf("tenant-%d", c%3)
					for r := 0; r < rounds; r++ {
						for _, q := range testQueries {
							res, err := cl.Query(context.Background(), q)
							if err != nil {
								errCh <- fmt.Errorf("client %d %q: %w", c, q, err)
								return
							}
							if got := res.Relation.String(); got != want[q] {
								errCh <- fmt.Errorf("client %d %q:\ngot:\n%s\nwant:\n%s", c, q, got, want[q])
								return
							}
						}
					}
				}(c)
			}
			wg.Wait()
			close(errCh)
			for err := range errCh {
				t.Error(err)
			}
			// The server billed every accepted query to its tenant.
			st, err := NewClient(fx.base).Stats(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			var billed int64
			for _, ten := range st.Tenants {
				billed += ten.Queries
			}
			if want := int64(clients * rounds * len(testQueries)); billed != want {
				t.Errorf("ledger billed %d queries, want %d", billed, want)
			}
			if st.Cache == nil {
				t.Error("stats carry no cache section despite WithResultCache")
			}
		})
	}
}

// TestWarmRoundIssuesZeroSelects pins the payoff of the shared result
// cache: after a cold round fills it, a full repeat of the corpus reaches
// the storage backend with zero Select requests.
func TestWarmRoundIssuesZeroSelects(t *testing.T) {
	fx := newFixture(t, "inproc", Config{})
	cl := NewClient(fx.base)
	for _, q := range testQueries {
		if _, err := cl.Query(context.Background(), q); err != nil {
			t.Fatalf("cold %q: %v", q, err)
		}
	}
	fx.counting.Reset()
	var hits int64
	for _, q := range testQueries {
		res, err := cl.Query(context.Background(), q)
		if err != nil {
			t.Fatalf("warm %q: %v", q, err)
		}
		hits += res.CacheHits
	}
	if n := fx.counting.Selects(); n != 0 {
		t.Errorf("warm round issued %d backend Selects, want 0", n)
	}
	if hits == 0 {
		t.Error("warm round reported zero cache hits")
	}
}

// TestQuotaRejectionCarriesKind spends a tenant's simulated budget and
// asserts the structured over-quota error, while an unrelated tenant
// keeps working.
func TestQuotaRejectionCarriesKind(t *testing.T) {
	fx := newFixture(t, "inproc", Config{TenantBudgetUSD: 1e-12})
	broke := NewClient(fx.base)
	broke.Tenant = "broke"
	// First query is under budget (spent $0) and gets billed.
	if _, err := broke.Query(context.Background(), testQueries[0]); err != nil {
		t.Fatalf("first query should pass: %v", err)
	}
	_, err := broke.Query(context.Background(), testQueries[0])
	if err == nil {
		t.Fatal("second query should be over quota")
	}
	var se *Error
	if !errors.As(err, &se) || se.Kind != KindOverQuota {
		t.Fatalf("want structured KindOverQuota, got %v (kind %q)", err, KindOf(err))
	}
	// Another tenant is unaffected.
	rich := NewClient(fx.base)
	rich.Tenant = "rich"
	if _, err := rich.Query(context.Background(), testQueries[0]); err != nil {
		t.Fatalf("other tenant should pass: %v", err)
	}
	// The rejection shows up in stats.
	st, err := NewClient(fx.base).Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Rejected[KindOverQuota] == 0 {
		t.Errorf("stats count no over_quota rejections: %+v", st.Rejected)
	}
	if b := st.Tenants["broke"]; b.TotalUSD <= 0 {
		t.Errorf("broke tenant shows no spend: %+v", b)
	}
}

// TestTenantConcurrencyLane pins the per-tenant admission lane: with a
// lane of 1 and a stalled backend, a tenant's second concurrent query is
// rejected as overloaded while a different tenant still gets in.
func TestTenantConcurrencyLane(t *testing.T) {
	fx := newFixture(t, "inproc", Config{TenantConcurrency: 1, RequestTimeout: 10 * time.Second})
	fx.fault.StallFor(400 * time.Millisecond)
	fx.fault.OnOps("select")

	slow := NewClient(fx.base)
	slow.Tenant = "greedy"
	started := make(chan struct{})
	res := make(chan error, 1)
	go func() {
		close(started)
		_, err := slow.Query(context.Background(), testQueries[0])
		res <- err
	}()
	<-started
	time.Sleep(100 * time.Millisecond) // let the first query occupy the lane
	_, err := slow.Query(context.Background(), testQueries[2])
	if KindOf(err) != KindOverloaded {
		t.Fatalf("second concurrent query in the lane: want overloaded, got %v", err)
	}
	other := NewClient(fx.base)
	other.Tenant = "patient"
	if _, err := other.Query(context.Background(), testQueries[2]); err != nil {
		t.Fatalf("different tenant should be admitted: %v", err)
	}
	if err := <-res; err != nil {
		t.Fatalf("stalled-but-admitted query should finish: %v", err)
	}
}

// TestOverloadedQueueRejects fills the global queue and asserts the
// structured overload rejection.
func TestOverloadedQueueRejects(t *testing.T) {
	fx := newFixture(t, "inproc", Config{MaxClients: 1, QueueDepth: 1, RequestTimeout: 10 * time.Second})
	fx.fault.StallFor(500 * time.Millisecond)
	fx.fault.OnOps("select")

	cl := NewClient(fx.base)
	var wg sync.WaitGroup
	kinds := make(chan ErrorKind, 3)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := cl.Query(context.Background(), testQueries[0])
			if err != nil {
				kinds <- KindOf(err)
			} else {
				kinds <- ""
			}
		}()
		time.Sleep(80 * time.Millisecond) // order arrivals: run, queue, reject
	}
	wg.Wait()
	close(kinds)
	var rejected, succeeded int
	for k := range kinds {
		switch k {
		case "":
			succeeded++
		case KindOverloaded:
			rejected++
		default:
			t.Errorf("unexpected kind %q", k)
		}
	}
	if rejected != 1 || succeeded != 2 {
		t.Errorf("want 2 served + 1 overloaded, got %d served, %d overloaded", succeeded, rejected)
	}
}

// TestGracefulShutdownDrains pins the drain contract: a query in flight
// when Shutdown starts completes with the right answer, and the server
// refuses new work while draining.
func TestGracefulShutdownDrains(t *testing.T) {
	bucket, tables := testTables()
	st := store.New()
	for name, tb := range tables {
		if err := engine.PartitionTable(context.Background(), st, bucket, name, tb.header, tb.rows, 4); err != nil {
			t.Fatal(err)
		}
	}
	raw := s3api.NewInProc(st)
	fault := s3api.NewFault(raw)
	db, err := engine.Open(bucket, engine.WithBackend("primary", fault))
	if err != nil {
		t.Fatal(err)
	}
	direct, err := engine.Open(bucket, engine.WithBackend("primary", raw))
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := direct.QueryContext(context.Background(), testQueries[0])
	if err != nil {
		t.Fatal(err)
	}
	srv := New(db, Config{RequestTimeout: 10 * time.Second})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan struct{})
	go func() { _ = srv.Serve(l); close(serveDone) }()
	base := "http://" + l.Addr().String()

	fault.StallFor(500 * time.Millisecond)
	fault.OnOps("select")
	type answer struct {
		res *Result
		err error
	}
	inflight := make(chan answer, 1)
	go func() {
		res, err := NewClient(base).Query(context.Background(), testQueries[0])
		inflight <- answer{res, err}
	}()
	time.Sleep(150 * time.Millisecond) // the query is mid-stall now

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	<-serveDone

	got := <-inflight
	if got.err != nil {
		t.Fatalf("in-flight query dropped during drain: %v", got.err)
	}
	if got.res.Relation.String() != want.String() {
		t.Errorf("drained query answer changed:\ngot:\n%s\nwant:\n%s", got.res.Relation, want)
	}
	// New work is refused after shutdown (the listener is closed).
	if _, err := NewClient(base).Query(context.Background(), testQueries[0]); err == nil {
		t.Error("query after shutdown should fail")
	}
}

// TestBadSQLRejectedBeforeAdmission pins the parse gate and its error
// kind.
func TestBadSQLRejectedBeforeAdmission(t *testing.T) {
	fx := newFixture(t, "inproc", Config{})
	_, err := NewClient(fx.base).Query(context.Background(), "SELEKT everything FROM nowhere")
	if KindOf(err) != KindBadRequest {
		t.Fatalf("want bad_request, got %v", err)
	}
	st, err := NewClient(fx.base).Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Rejected[KindBadRequest] == 0 {
		t.Error("bad_request rejection not counted")
	}
	if st.Accepted != 0 {
		t.Errorf("parse failure consumed an admission: accepted=%d", st.Accepted)
	}
}

// TestAuditLogRecordsOutcomes asserts the audit log carries executed and
// rejected statements with tenant attribution.
func TestAuditLogRecordsOutcomes(t *testing.T) {
	fx := newFixture(t, "inproc", Config{TenantBudgetUSD: 1e-12})
	cl := NewClient(fx.base)
	cl.Tenant = "alice"
	if _, err := cl.Query(context.Background(), testQueries[2]); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Query(context.Background(), "NOT SQL AT ALL"); KindOf(err) != KindBadRequest {
		t.Fatalf("want bad_request: %v", err)
	}
	if _, err := cl.Query(context.Background(), testQueries[2]); KindOf(err) != KindOverQuota {
		t.Fatalf("want over_quota: %v", err)
	}
	type line struct {
		Tenant  string  `json:"tenant"`
		SQL     string  `json:"sql"`
		Status  string  `json:"status"`
		CostUSD float64 `json:"cost_usd"`
	}
	var lines []line
	sc := bufio.NewScanner(strings.NewReader(fx.audit.String()))
	for sc.Scan() {
		var l line
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("bad audit line %q: %v", sc.Text(), err)
		}
		lines = append(lines, l)
	}
	if len(lines) != 3 {
		t.Fatalf("want 3 audit lines, got %d: %+v", len(lines), lines)
	}
	if lines[0].Status != "ok" || lines[0].Tenant != "alice" || lines[0].CostUSD <= 0 {
		t.Errorf("executed line: %+v", lines[0])
	}
	if lines[1].Status != string(KindBadRequest) {
		t.Errorf("parse-reject line: %+v", lines[1])
	}
	if lines[2].Status != string(KindOverQuota) {
		t.Errorf("quota-reject line: %+v", lines[2])
	}
}

// TestHealthAndStatsEndpoints covers the two GET surfaces.
func TestHealthAndStatsEndpoints(t *testing.T) {
	fx := newFixture(t, "inproc", Config{})
	cl := NewClient(fx.base)
	if err := cl.Health(context.Background()); err != nil {
		t.Fatalf("health: %v", err)
	}
	if _, err := cl.Query(context.Background(), testQueries[0]); err != nil {
		t.Fatal(err)
	}
	st, err := cl.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Accepted != 1 || st.InFlight != 0 {
		t.Errorf("counters: %+v", st)
	}
	if _, ok := st.Tenants["default"]; !ok {
		t.Errorf("default tenant missing from stats: %+v", st.Tenants)
	}
}

// TestDDLThroughServer runs CREATE/DROP INDEX through the wire and pins
// the empty-relation response shape.
func TestDDLThroughServer(t *testing.T) {
	fx := newFixture(t, "inproc", Config{})
	cl := NewClient(fx.base)
	res, err := cl.Query(context.Background(), "CREATE INDEX ON orders (o_price)")
	if err != nil {
		t.Fatalf("create index: %v", err)
	}
	if len(res.Relation.Cols) != 0 || len(res.Relation.Rows) != 0 {
		t.Errorf("DDL response should be empty, got %v", res.Relation)
	}
	if _, err := cl.Query(context.Background(), "SELECT o_id FROM orders WHERE o_price > 990 ORDER BY o_id"); err != nil {
		t.Fatalf("indexed query: %v", err)
	}
	if _, err := cl.Query(context.Background(), "DROP INDEX ON orders (o_price)"); err != nil {
		t.Fatalf("drop index: %v", err)
	}
}

// TestUnknownTableIsBadRequest pins the backend-path error-kind
// discipline: a syntactically valid query over a missing table is the
// client's mistake and must come back as bad_request, not fall through
// the classifier to internal (a 500).
func TestUnknownTableIsBadRequest(t *testing.T) {
	fx := newFixture(t, "inproc", Config{})
	_, err := NewClient(fx.base).Query(context.Background(), "SELECT * FROM nosuchtable")
	if KindOf(err) != KindBadRequest {
		t.Fatalf("unknown table: want %q, got %q (%v)", KindBadRequest, KindOf(err), err)
	}
}

// TestUnknownColumnIsBadRequest: a column the table lacks is the client's
// mistake on every access path, the planner's baseline included, where the
// server's own operators would read it: bad_request, never internal. Each
// statement is planned on the baseline (its EXPLAIN says so without the
// unknown column).
func TestUnknownColumnIsBadRequest(t *testing.T) {
	fx := newFixture(t, "inproc", Config{})
	cl := NewClient(fx.base)
	ctx := context.Background()
	if _, err := cl.Query(ctx, "CREATE INDEX ON orders (o_price)"); err != nil {
		t.Fatal(err)
	}
	plan, err := cl.Query(ctx, "EXPLAIN SELECT o_id FROM orders WHERE o_price >= 0 ORDER BY o_id")
	if err != nil {
		t.Fatal(err)
	}
	if first := plan.Relation.Rows[0][0].String(); !strings.Contains(first, ": baseline") {
		t.Fatalf("the statement's shape is not planned on the baseline: %s", first)
	}
	for _, sql := range []string{
		"SELECT o_id, nosuch FROM orders WHERE o_price >= 0 ORDER BY o_id",
		"SELECT o_id FROM orders WHERE o_price >= 0 ORDER BY nosuch",
		"SELECT o_id FROM orders WHERE o_price >= 0 AND (o_id > 0 OR nosuch = 1) ORDER BY o_id",
	} {
		if _, err := cl.Query(ctx, sql); KindOf(err) != KindBadRequest || !strings.Contains(err.Error(), "unknown column nosuch") {
			t.Errorf("%s: want %q for the unknown column, got %q (%v)", sql, KindBadRequest, KindOf(err), err)
		}
	}
}
