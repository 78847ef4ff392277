package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"time"

	"pushdowndb/internal/cloudsim"
	"pushdowndb/internal/engine"
	"pushdowndb/internal/s3api"
	"pushdowndb/internal/scanshare"
	"pushdowndb/internal/server"
	"pushdowndb/internal/store"
	"pushdowndb/internal/tpch"
	"pushdowndb/internal/workload"
)

// Fixed conditions (pushdownd -demo's defaults). The seed is the only
// input that varies between runs: it drives the TPC-H generator and, on
// serve_zipf, the request stream.
const (
	benchSF     = 0.01
	quickSF     = 0.002 // -quick: the smoke test's scale
	benchParts  = 4
	benchBucket = "tpch"
	paperSF     = 10 // the scale virtual time is reported at, as harness.scaledDB does
	paperParts  = 32
	// serveCacheBytes is pushdownd's default -cache-mb.
	serveCacheBytes = 64 << 20
)

// statement is one distinct request the program under test can receive:
// SQL text, or for baseline_local one of tpch's hand-built baseline plans.
type statement struct {
	template string
	sql      string
	fn       tpch.QueryFunc // baseline_local only
}

// run executes the statement in process on db. The oracle uses it on the
// reference DB for every workload, serve_zipf included.
func (s *statement) run(ctx context.Context, db *engine.DB) (*engine.Relation, *engine.Exec, error) {
	if s.fn != nil {
		return s.fn(db)
	}
	return db.QueryContext(ctx, s.sql)
}

// workloadSpec is one workload's recipe.
type workloadSpec struct {
	name string
	// load writes the workload's tables into a fresh store.
	load func(ctx context.Context, st *store.Store, ds tpch.Dataset) error
	// paperScale reports virtual time and cost at the paper's SF 10 and 32
	// partitions, as harness.scaledDB does.
	paperScale bool
	// caches are the options only the DB under test gets; the oracle's
	// reference DB runs without them.
	caches []engine.Option
	// statements lists every distinct statement of the workload.
	statements func() []statement
	// cold workloads call InvalidateStats before each cycle, so every
	// cycle pays the planner's probes again.
	cold bool
	// served workloads go through server + client instead of QueryContext
	// and deal statements from a shuffled Zipf-weighted deck, not
	// round-robin.
	served bool
}

// options are the engine options of the DB under test, or of the oracle's
// reference DB: the row-at-a-time operators, no result cache, no scan
// sharing.
func (spec *workloadSpec) options(backend s3api.Backend, sf float64, reference bool) []engine.Option {
	opts := []engine.Option{engine.WithBackend("inproc", backend)}
	if spec.paperScale {
		opts = append(opts, engine.WithScale(cloudsim.Scale{
			DataRatio: paperSF / sf,
			PartRatio: float64(paperParts) / benchParts,
		}))
	}
	if reference {
		return append(opts, engine.WithVectorized(false))
	}
	return append(opts, spec.caches...)
}

func loadCSV(ctx context.Context, st *store.Store, ds tpch.Dataset) error {
	_, err := tpch.Load(ctx, st, ds)
	return err
}

var workloadSpecs = map[string]*workloadSpec{
	"pushdown_cold": {
		name: "pushdown_cold", load: loadCSV, paperScale: true, cold: true,
		statements: func() []statement { return sqlStatements(goldenSQL) },
	},
	"baseline_local": {
		name: "baseline_local", load: loadCSV, paperScale: true,
		statements: func() []statement {
			var out []statement
			for _, q := range tpch.Queries() {
				out = append(out, statement{template: "base_q" + q.Name[1:], fn: q.Baseline})
			}
			return out
		},
	},
	"columnar_cold": {
		name: "columnar_cold", paperScale: true, cold: true,
		load: func(_ context.Context, st *store.Store, ds tpch.Dataset) error {
			_, err := tpch.LoadColumnar(st, ds)
			return err
		},
		statements: func() []statement { return sqlStatements(columnarSQL) },
	},
	"serve_zipf": {
		name: "serve_zipf", served: true,
		// As pushdownd -demo: the CSV tables plus the Fig. 1 index table,
		// an unscaled planner, a 64 MiB result cache and scan sharing.
		load: func(ctx context.Context, st *store.Store, ds tpch.Dataset) error {
			_, err := tpch.LoadWithIndexes(ctx, st, ds)
			return err
		},
		caches: []engine.Option{
			engine.WithResultCache(serveCacheBytes),
			engine.WithScanSharing(scanshare.Config{}),
		},
		statements: serveStatements,
	},
}

type namedSQL struct{ name, sql string }

func sqlStatements(list []namedSQL) []statement {
	out := make([]statement, len(list))
	for i, q := range list {
		out[i] = statement{template: q.name, sql: q.sql}
	}
	return out
}

// goldenSQL is the paper's TPC-H subset as the SQL front end expresses it:
// a copy of internal/tpch/golden_test.go's goldenQueries, which is
// test-only.
var goldenSQL = []namedSQL{
	{"q1", q1SQL("lineitem", "1998-09-02")},
	{"q3", q3SQL("BUILDING", "1995-03-15")},
	{"q6", q6SQL("lineitem", 1994, 0.06)},
	{"q14", q14SQL("1995-09-01", "1995-10-01")},
	{"q19", "SELECT SUM(l_extendedprice * (1 - l_discount)) AS revenue " +
		"FROM lineitem l JOIN part p ON l.l_partkey = p.p_partkey " +
		"WHERE l.l_shipmode IN ('AIR', 'AIR REG') AND l.l_shipinstruct = 'DELIVER IN PERSON' " +
		"AND l.l_quantity BETWEEN 1 AND 30 " +
		"AND ((p.p_brand = 'Brand#12' AND l.l_quantity BETWEEN 1 AND 11) " +
		"OR (p.p_brand = 'Brand#23' AND l.l_quantity BETWEEN 10 AND 20) " +
		"OR (p.p_brand = 'Brand#34' AND l.l_quantity BETWEEN 20 AND 30))"},
}

// columnarSQL is single-table on lineitem_col: SQL joins over colformat
// tables fail at the commit that added the benchmark, and the issue asks
// that the benchmark not work around it.
var columnarSQL = []namedSQL{
	{"col_q1", q1SQL("lineitem_col", "1998-09-02")},
	{"col_q6", q6SQL("lineitem_col", 1994, 0.06)},
	{"col_rows", exportSQL("lineitem_col", 10)},
	{"col_topk", "SELECT l_orderkey, l_extendedprice FROM lineitem_col ORDER BY l_extendedprice DESC LIMIT 100"},
	{"col_minmax", "SELECT l_shipmode, MIN(l_extendedprice) AS min_price, MAX(l_extendedprice) AS max_price, " +
		"COUNT(*) AS n FROM lineitem_col GROUP BY l_shipmode"},
}

func q1SQL(table, cutoff string) string {
	return "SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty, " +
		"SUM(l_extendedprice) AS sum_base_price, " +
		"SUM(l_extendedprice * (1 - l_discount)) AS sum_disc_price, " +
		"SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)) AS sum_charge, " +
		"AVG(l_quantity) AS avg_qty, AVG(l_extendedprice) AS avg_price, " +
		"AVG(l_discount) AS avg_disc, COUNT(*) AS count_order " +
		"FROM " + table + " WHERE l_shipdate <= '" + cutoff + "' " +
		"GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus"
}

func q3SQL(segment, day string) string {
	return "SELECT l_orderkey, SUM(l_extendedprice * (1 - l_discount)) AS revenue, " +
		"o_orderdate, o_shippriority " +
		"FROM customer c JOIN orders o ON c.c_custkey = o.o_custkey " +
		"JOIN lineitem l ON o.o_orderkey = l.l_orderkey " +
		"WHERE c.c_mktsegment = '" + segment + "' AND o.o_orderdate < '" + day + "' AND l.l_shipdate > '" + day + "' " +
		"GROUP BY l_orderkey, o_orderdate, o_shippriority " +
		"ORDER BY revenue DESC, o_orderdate LIMIT 10"
}

// q6SQL is Q6 for one ship year and one discount band of ±0.01 around mid.
func q6SQL(table string, year int, mid float64) string {
	return fmt.Sprintf("SELECT SUM(l_extendedprice * l_discount) AS revenue FROM %s "+
		"WHERE l_shipdate >= '%d-01-01' AND l_shipdate < '%d-01-01' "+
		"AND l_discount BETWEEN %.2f AND %.2f AND l_quantity < 24",
		table, year, year+1, mid-0.01, mid+0.01)
}

func q14SQL(from, to string) string {
	return "SELECT 100.0 * SUM(CASE WHEN p_type LIKE 'PROMO%' THEN l_extendedprice * (1 - l_discount) ELSE 0 END) " +
		"/ SUM(l_extendedprice * (1 - l_discount)) AS promo_revenue " +
		"FROM lineitem l JOIN part p ON l.l_partkey = p.p_partkey " +
		"WHERE l.l_shipdate >= '" + from + "' AND l.l_shipdate < '" + to + "'"
}

// exportSQL returns five columns of every lineitem under a quantity
// threshold: about 1.2k rows per unit of threshold at SF 0.01.
func exportSQL(table string, below int) string {
	return fmt.Sprintf("SELECT l_orderkey, l_partkey, l_quantity, l_extendedprice, l_shipdate "+
		"FROM %s WHERE l_quantity < %d", table, below)
}

// serveTemplate is one serve_zipf template: its share of the traffic and
// its parameter values, most popular first.
type serveTemplate struct {
	name   string
	weight int // percent of requests
	sqls   []string
}

// serveTemplates is serve_zipf's traffic mix. The parameter lists are
// short because the oracle computes every distinct statement's answer on
// the reference DB inside each run's set-up, and a miss costs 20 to 350 ms
// at SF 0.01; 32 statements keep that to a few seconds while their select
// responses still outgrow the 64 MiB result cache.
func serveTemplates() []serveTemplate {
	ts := []serveTemplate{
		{name: "dash_q6", weight: 30},
		{name: "point_orders", weight: 20},
		{name: "join_q14", weight: 15},
		{name: "join_q3", weight: 15},
		{name: "export_rows", weight: 12},
		{name: "report_q1", weight: 8},
	}
	for _, year := range []int{1994, 1995, 1996} {
		for _, mid := range []float64{0.06, 0.03, 0.08} {
			ts[0].sqls = append(ts[0].sqls, q6SQL("lineitem", year, mid))
		}
	}
	for i := 0; i < 8; i++ {
		ts[1].sqls = append(ts[1].sqls, fmt.Sprintf(
			"SELECT o_orderkey, o_totalprice, o_orderdate, o_orderstatus FROM orders WHERE o_custkey = %d", 7+i*113))
	}
	for m := 9; m <= 12; m++ {
		from := fmt.Sprintf("1995-%02d-01", m)
		to := fmt.Sprintf("1995-%02d-01", m+1)
		if m == 12 {
			to = "1996-01-01"
		}
		ts[2].sqls = append(ts[2].sqls, q14SQL(from, to))
	}
	for _, segment := range []string{"BUILDING", "MACHINERY"} {
		for _, day := range []string{"1995-03-15", "1995-03-25"} {
			ts[3].sqls = append(ts[3].sqls, q3SQL(segment, day))
		}
	}
	for _, below := range []int{10, 3, 6, 8} {
		ts[4].sqls = append(ts[4].sqls, exportSQL("lineitem", below))
	}
	for _, cutoff := range []string{"1998-09-02", "1998-08-01", "1998-06-01"} {
		ts[5].sqls = append(ts[5].sqls, q1SQL("lineitem", cutoff))
	}
	return ts
}

func serveStatements() []statement {
	var out []statement
	for _, t := range serveTemplates() {
		for _, sql := range t.sqls {
			out = append(out, statement{template: t.name, sql: sql})
		}
	}
	return out
}

// zipfTheta is the skew of each template's parameter popularity.
const zipfTheta = 0.9

// serveDeck is one hundred requests as statement indices: every template
// weight times, its parameters sharing that count by Zipf mass (largest
// remainders first). serve_zipf deals this deck over and over, shuffled, so
// every hundred requests — and therefore every window and every run — ask
// for exactly the same work in a different order. Drawing each request
// independently instead made throughput swing 10 % between seeds on
// nothing but how many report_q1 and how large an export the draw held.
func serveDeck() []int {
	var deck []int
	first := 0
	for _, t := range serveTemplates() {
		z := workload.NewZipf(len(t.sqls), zipfTheta, 0)
		type share struct {
			param, count int
			rest         float64
		}
		shares := make([]share, len(t.sqls))
		left := t.weight
		for k := range shares {
			exact := float64(t.weight) * (z.TopMass(k+1) - z.TopMass(k))
			shares[k] = share{k, int(exact), exact - float64(int(exact))}
			left -= shares[k].count
		}
		sort.SliceStable(shares, func(i, j int) bool { return shares[i].rest > shares[j].rest })
		for i := 0; i < left; i++ {
			shares[i].count++
		}
		sort.Slice(shares, func(i, j int) bool { return shares[i].param < shares[j].param })
		for _, sh := range shares {
			for n := 0; n < sh.count; n++ {
				deck = append(deck, first+sh.param)
			}
		}
		first += len(t.sqls)
	}
	return deck
}

// serveStream deals shuffled decks; it is a pure function of its seed.
type serveStream struct {
	rng  *rand.Rand
	deck []int
}

func newServeStream(seed int64) *serveStream {
	return &serveStream{rng: rand.New(rand.NewSource(seed)), deck: serveDeck()}
}

// deal returns the next shuffled deck. The slice is reused by the next
// call.
func (s *serveStream) deal() []int {
	s.rng.Shuffle(len(s.deck), func(i, j int) { s.deck[i], s.deck[j] = s.deck[j], s.deck[i] })
	return s.deck
}

// instance is one opened workload: the DB under test over a loaded store
// and, for served workloads, a server on a loopback port with its client.
type instance struct {
	spec  *workloadSpec
	store *store.Store
	db    *engine.DB

	srv     *server.Server
	client  *server.Client
	serveCh chan error
}

// loadStore generates the seed's TPC-H tables and loads them as the
// workload's objects.
func loadStore(ctx context.Context, spec *workloadSpec, sf float64, seed int64) (*store.Store, error) {
	st := store.New()
	ds := tpch.Dataset{SF: sf, Seed: seed, Bucket: benchBucket, Partitions: benchParts}
	if err := spec.load(ctx, st, ds); err != nil {
		return nil, fmt.Errorf("loading %s tables: %w", spec.name, err)
	}
	return st, nil
}

// open opens the workload's DB over st through backend (the in-process S3
// simulator, or the traced run's timing wrapper around it) and starts the
// server when the workload is served.
func open(ctx context.Context, spec *workloadSpec, st *store.Store, backend s3api.Backend, sf float64) (*instance, error) {
	db, err := engine.Open(benchBucket, spec.options(backend, sf, false)...)
	if err != nil {
		return nil, err
	}
	inst := &instance{spec: spec, store: st, db: db}
	if !spec.served {
		return inst, nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	inst.srv = server.New(db, server.Config{})
	inst.serveCh = make(chan error, 1)
	go func() { inst.serveCh <- inst.srv.Serve(ln) }()
	inst.client = server.NewClient("http://" + ln.Addr().String())
	// A transport of its own, so closing the instance closes its idle
	// connections and nothing outlives it.
	inst.client.HTTPClient = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
	// Set-up ends when the server answers, which also orders Serve's
	// registration of its http.Server before any later Shutdown.
	if err := inst.waitHealthy(ctx); err != nil {
		return nil, err
	}
	return inst, nil
}

func (in *instance) waitHealthy(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	for {
		err := in.client.Health(ctx)
		if err == nil {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("server did not come up: %w", err)
		case serr := <-in.serveCh:
			return fmt.Errorf("server stopped during start-up: %w", serr)
		case <-time.After(time.Millisecond):
		}
	}
}

// close drains and stops the server and waits for its goroutine; closing
// twice, or closing an in-process instance, does nothing.
func (in *instance) close(ctx context.Context) error {
	if in.srv == nil {
		return nil
	}
	srv := in.srv
	in.srv = nil
	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	err := srv.Shutdown(ctx)
	if serr := <-in.serveCh; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	in.client.HTTPClient.CloseIdleConnections()
	return err
}

// reply is what one request brought back.
type reply struct {
	rel      *engine.Relation
	exec     *engine.Exec  // nil over HTTP
	wall     time.Duration // the call's round trip, as the caller saw it
	virtSec  float64
	virtUSD  float64
	requests int64 // storage requests cloudsim billed
}

// issue sends a statement to the program under test the way the workload's
// users would: QueryContext (or the baseline plan) in process, or the
// client over HTTP with the given request id.
func (in *instance) issue(ctx context.Context, st *statement, requestID string) (reply, error) {
	t0 := time.Now()
	if in.client != nil {
		res, err := in.client.QueryID(ctx, st.sql, requestID)
		wall := time.Since(t0)
		if err != nil {
			return reply{}, err
		}
		return reply{rel: res.Relation, wall: wall, virtSec: res.RuntimeSec, virtUSD: res.Cost.Total(), requests: res.Requests}, nil
	}
	rel, exec, err := st.run(ctx, in.db)
	wall := time.Since(t0)
	if err != nil {
		return reply{}, err
	}
	requests, _, _, _ := exec.Metrics.Totals()
	return reply{rel: rel, exec: exec, wall: wall, virtSec: exec.RuntimeSeconds(), virtUSD: exec.Cost().Total(), requests: requests}, nil
}
