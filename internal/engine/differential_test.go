package engine

import (
	"context"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"pushdowndb/internal/cloudsim"
	"pushdowndb/internal/localfs"
	"pushdowndb/internal/s3api"
	"pushdowndb/internal/s3http"
	"pushdowndb/internal/store"
)

// Cross-backend differential suite: the full query corpus must produce
// byte-identical results on the in-process, localfs and s3http backends,
// cold and warm (result cache on), and a warm repeat must reach no backend
// with a Select request. The engine claims backend independence
// (s3api.Backend + the conformance suite) and worker-count-independent
// determinism; this is the end-to-end check of both.

const diffBucket = "diff"

// diffQueries is the corpus: filters, group-bys, top-K, 2- and 3-table
// joins, and NULL/NaN edge cases. ordered marks queries whose row order is
// part of the contract (ORDER BY / LIMIT); unordered results are compared
// as sorted multisets.
var diffQueries = []struct {
	name    string
	sql     string
	ordered bool
}{
	{"filter-eq-zip", "SELECT pk, pname FROM p WHERE zip = '00501'", false},
	{"filter-range", "SELECT pk, score FROM p WHERE score >= 10 AND score < 60", false},
	{"filter-like-in", "SELECT pk, pname FROM p WHERE pname LIKE 'A%' OR zip IN ('00501', '99999')", false},
	{"filter-not-between", "SELECT pk FROM p WHERE NOT (score BETWEEN 20 AND 80)", false},
	{"proj-star", "SELECT * FROM p WHERE pk < 5", false},
	{"null-group", "SELECT ok FROM ord WHERE tag IS NULL", false},
	{"not-null-group", "SELECT ok FROM ord WHERE tag IS NOT NULL AND amount >= 50", false},
	{"groupby-count-sum", "SELECT zip, COUNT(*) AS n, SUM(score) AS s FROM p GROUP BY zip ORDER BY zip", true},
	{"groupby-null-key", "SELECT tag, COUNT(*) AS n, MIN(amount) AS lo, MAX(amount) AS hi, AVG(amount) AS av FROM ord GROUP BY tag ORDER BY n DESC, tag", true},
	{"topk-desc", "SELECT pk, score FROM p ORDER BY score DESC, pk LIMIT 5", true},
	{"topk-asc-nan", "SELECT pk, score FROM p ORDER BY score, pk LIMIT 8", true},
	{"nan-total-order", "SELECT pk, score FROM p ORDER BY score, pk", true},
	{"limit-pushdown", "SELECT pk FROM p WHERE score >= 0 LIMIT 3", true},
	{"agg-empty-input", "SELECT COUNT(*) AS n, SUM(score) AS s FROM p WHERE pk > 1000000", false},
	{"join2-groupby", "SELECT pname, SUM(amount) AS total FROM p JOIN ord ON p.pk = ord.pk GROUP BY pname ORDER BY pname", true},
	{"join2-filters", "SELECT COUNT(*) AS n FROM p JOIN ord ON p.pk = ord.pk WHERE score >= 50 AND amount < 100", false},
	{"join3-groupby", "SELECT pname, COUNT(*) AS n FROM p JOIN ord ON p.pk = ord.pk JOIN item ON ord.ok = item.ok WHERE qty >= 1 GROUP BY pname ORDER BY pname", true},
	{"join3-topk", "SELECT pname, qty FROM p JOIN ord ON p.pk = ord.pk JOIN item ON ord.ok = item.ok ORDER BY qty DESC, pname, ik LIMIT 6", true},
}

// diffRows builds the shared dataset, deliberately nasty: NULLs (empty CSV
// fields), NaN scores, numeric-looking zip strings that must not round-trip
// as numbers, and names containing CSV metacharacters.
func diffLoad(t testing.TB, put s3api.Putter) {
	t.Helper()
	ctx := context.Background()
	people := [][]string{
		{"1", "Alice", "90.5", "00501"},
		{"2", "Bob", "NaN", "10001"},
		{"3", `Smith, Al`, "55", "00501"},
		{"4", `O"Hara`, "-12.25", "99999"},
		{"5", "Ann", "", "10001"}, // NULL score
		{"6", "Ada", "10", ""},    // NULL zip
		{"7", "Burt", "60", "10001"},
		{"8", "Cleo", "0", "00501"},
		{"9", "Ava", "NaN", "99999"},
		{"10", "Dan", "33.125", "10001"},
	}
	orders := [][]string{
		{"100", "1", "50", "web"},
		{"101", "1", "149.99", ""},
		{"102", "2", "75", "web"},
		{"103", "3", "20", "store"},
		{"104", "3", "99.5", ""},
		{"105", "5", "10", "store"},
		{"106", "7", "500", "web"},
		{"107", "8", "1", ""},
		{"108", "10", "42", "phone"},
	}
	items := [][]string{
		{"1000", "100", "2"},
		{"1001", "100", "1"},
		{"1002", "102", "5"},
		{"1003", "103", "3"},
		{"1004", "106", "9"},
		{"1005", "106", "4"},
		{"1006", "108", "7"},
	}
	for _, tbl := range []struct {
		name   string
		header []string
		rows   [][]string
		parts  int
	}{
		{"p", []string{"pk", "pname", "score", "zip"}, people, 3},
		{"ord", []string{"ok", "pk", "amount", "tag"}, orders, 2},
		{"item", []string{"ik", "ok", "qty"}, items, 2},
	} {
		if err := PartitionTableTo(ctx, put, diffBucket, tbl.name, tbl.header, tbl.rows, tbl.parts); err != nil {
			t.Fatal(err)
		}
	}
}

// diffBackends builds the three backend implementations, each seeded with
// the identical dataset and wrapped in a request counter.
func diffBackends(t *testing.T) map[string]*s3api.Counting {
	t.Helper()
	out := map[string]*s3api.Counting{}

	inproc := s3api.NewInProc(store.New())
	diffLoad(t, inproc)
	out["inproc"] = s3api.NewCounting(inproc)

	fs := localfs.New(t.TempDir())
	diffLoad(t, fs)
	out["localfs"] = s3api.NewCounting(fs)

	srv := httptest.NewServer(s3http.NewServer(s3api.NewInProc(store.New())))
	t.Cleanup(srv.Close)
	client := s3http.NewClient(srv.URL, srv.Client())
	diffLoad(t, client)
	out["s3http"] = s3api.NewCounting(client)

	return out
}

// render canonicalizes a relation: exact row order for ordered queries, a
// sorted multiset otherwise (group/join output order is deterministic per
// engine build, but it is not part of the SQL contract).
func render(rel *Relation, ordered bool) string {
	lines := make([]string, len(rel.Rows))
	for i, row := range rel.Rows {
		parts := make([]string, len(row))
		for j, v := range row {
			parts[j] = v.String()
		}
		lines[i] = strings.Join(parts, "|")
	}
	if !ordered {
		sort.Strings(lines)
	}
	return strings.Join(rel.Cols, "|") + "\n" + strings.Join(lines, "\n")
}

func TestDifferentialAcrossBackends(t *testing.T) {
	backends := diffBackends(t)
	// reference[query] = (rendered result, backend that produced it)
	type ref struct{ out, from string }
	reference := map[string]ref{}

	for name, counting := range backends {
		t.Run(name, func(t *testing.T) {
			db, err := Open(diffBucket,
				WithBackend(name, counting),
				WithResultCache(testCacheBudget))
			if err != nil {
				t.Fatal(err)
			}
			var warmHits int64
			for _, q := range diffQueries {
				cold, _, err := db.QueryContext(context.Background(), q.sql)
				if err != nil {
					t.Fatalf("%s (cold): %v", q.name, err)
				}
				coldOut := render(cold, q.ordered)

				selectsBefore := counting.Selects()
				warm, e, err := db.QueryContext(context.Background(), q.sql)
				if err != nil {
					t.Fatalf("%s (warm): %v", q.name, err)
				}
				if warmOut := render(warm, q.ordered); warmOut != coldOut {
					t.Errorf("%s: warm result differs from cold on %s\ncold:\n%s\nwarm:\n%s",
						q.name, name, coldOut, warmOut)
				}
				if d := counting.Selects() - selectsBefore; d != 0 {
					t.Errorf("%s: warm repeat issued %d backend Select requests on %s, want 0", q.name, d, name)
				}
				// Baseline-planned joins scan with plain GETs and owe the
				// select cache nothing, so hits are asserted in aggregate.
				hits, _ := e.Metrics.CacheTotals()
				warmHits += hits

				if r, ok := reference[q.name]; !ok {
					reference[q.name] = ref{out: coldOut, from: name}
				} else if r.out != coldOut {
					t.Errorf("%s: result differs between backends\n%s:\n%s\n%s:\n%s",
						q.name, r.from, r.out, name, coldOut)
				}
			}
			if warmHits == 0 {
				t.Errorf("no warm query on %s was served from the result cache", name)
			}
		})
	}
}

// TestDifferentialIndexedQueries runs index-eligible queries identically
// on all three backends, with the index built through each backend's own
// write path. For every query both the planner-chosen execution and the
// forced IndexScan path (index probe → coalesced multi-range GETs → local
// re-filter) must agree with each other and across backends, and a warm
// planner-path repeat must reach no backend with a Select request — index
// probes are select-cached like any other pushed scan. The dataset is
// deliberately the nasty differential one: NULLs, quoted names, numeric-
// looking strings.
func TestDifferentialIndexedQueries(t *testing.T) {
	ctx := context.Background()
	queries := []struct {
		name, sql              string
		column, pred, projcols string
	}{
		{"idx-eq-int", "SELECT pk, pname FROM p WHERE pk = 7", "pk", "pk = 7", "pk, pname"},
		{"idx-range-int", "SELECT pk, score FROM p WHERE pk <= 4", "pk", "pk <= 4", "pk, score"},
		{"idx-eq-string", "SELECT pk, pname FROM p WHERE zip = '00501'", "zip", "zip = '00501'", "pk, pname"},
		{"idx-residual", "SELECT pk FROM p WHERE pk = 3 AND score >= 10", "pk", "pk = 3 AND score >= 10", "pk"},
	}
	type ref struct{ out, from string }
	reference := map[string]ref{}
	for name, counting := range diffBackends(t) {
		t.Run(name, func(t *testing.T) {
			db, err := Open(diffBucket,
				WithBackend(name, counting),
				WithResultCache(testCacheBudget),
				WithScale(cloudsim.Scale{DataRatio: 50000, PartRatio: 8}))
			if err != nil {
				t.Fatal(err)
			}
			for _, col := range []string{"pk", "zip"} {
				if err := db.CreateIndex(ctx, "p", col); err != nil {
					t.Fatalf("CreateIndex(p, %s) on %s: %v", col, name, err)
				}
			}
			for _, q := range queries {
				cold, e, err := db.QueryContext(context.Background(), q.sql)
				if err != nil {
					t.Fatalf("%s (cold): %v", q.name, err)
				}
				coldOut := render(cold, false)
				// The planner saw the index whatever it chose to run.
				if ap := e.Access(); ap == nil || ap.Index == nil {
					t.Errorf("%s: no index candidate considered on %s", q.name, name)
				}
				// Forced IndexScan must produce the identical relation.
				forced, gets, err := db.NewExec().IndexScanFilter("p", q.column, q.pred, q.projcols)
				if err != nil {
					t.Fatalf("%s (forced index): %v", q.name, err)
				}
				if forcedOut := render(forced, false); forcedOut != coldOut {
					t.Errorf("%s: forced IndexScan differs from planned query on %s\nplanned:\n%s\nindex:\n%s",
						q.name, name, coldOut, forcedOut)
				}
				if len(forced.Rows) > 0 && gets == 0 {
					t.Errorf("%s: forced IndexScan issued no multi-range GETs on %s", q.name, name)
				}
				selectsBefore := counting.Selects()
				warm, _, err := db.QueryContext(context.Background(), q.sql)
				if err != nil {
					t.Fatalf("%s (warm): %v", q.name, err)
				}
				if warmOut := render(warm, false); warmOut != coldOut {
					t.Errorf("%s: warm differs from cold on %s", q.name, name)
				}
				if d := counting.Selects() - selectsBefore; d != 0 {
					t.Errorf("%s: warm repeat issued %d Selects on %s, want 0", q.name, d, name)
				}
				if r, ok := reference[q.name]; !ok {
					reference[q.name] = ref{out: coldOut, from: name}
				} else if r.out != coldOut {
					t.Errorf("%s: result differs between backends\n%s:\n%s\n%s:\n%s",
						q.name, r.from, r.out, name, coldOut)
				}
			}
		})
	}
}
