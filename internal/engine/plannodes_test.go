package engine

import (
	"context"
	"fmt"
	"testing"

	"pushdowndb/internal/index"
	"pushdowndb/internal/selectengine"
	"pushdowndb/internal/sqlparse"
	"pushdowndb/internal/store"
)

// The planner prices a pushed request's per-row work (PlanTableStats.
// FilterNodes, IndexScanStats.PredNodes) by counting the statement it built,
// never by parsing the SQL it printed from it. Those counts must be what
// storage counts on that text at run time (Stats.ExprNodes), or an estimate
// prices work execution never meters.

// CheckPlannedNodes checks every node count the planner priced a pushed
// request of sql at in e — each join scan's filtered scan, a priced access
// plan's filtered scan, and the IndexScan probe of either's index candidate
// — against selectengine.CountNodes of the SQL execution sends for it, and
// returns how many of each kind it checked.
func CheckPlannedNodes(t testing.TB, what string, e *Exec, sql string) map[string]int {
	t.Helper()
	checked := map[string]int{}
	check := func(kind string, nodes int64, text string) {
		t.Helper()
		checked[kind]++
		req, err := sqlparse.Parse(text)
		if err != nil {
			t.Errorf("%s: the %s request %q does not parse: %v", what, kind, text, err)
		} else if want := selectengine.CountNodes(req); nodes != want {
			t.Errorf("%s: the %s request is priced at %d nodes, storage counts %d on %q", what, kind, nodes, want, text)
		}
	}
	var cands []*IndexCandidate
	p := e.QueryPlan()
	for _, sc := range p.Scans {
		switch {
		case len(p.Steps) > 0:
			check("scan", sc.Stats.FilterNodes, sc.req.SQL)
		case sc.Access != nil && len(sc.Access.Estimates) > 0:
			check("access", sc.Stats.FilterNodes, pushedScan(p.Sel, nil).String())
		default:
			continue
		}
		cands = append(cands, sc.Index)
	}
	for _, c := range cands {
		if c != nil {
			check("index probe", indexScanStats(c).PredNodes, index.Probe(indexValuePred(c.Pred)).String())
		}
	}
	return checked
}

// TestPlannerNodeCounts runs CheckPlannedNodes over pushStatements (CSV and
// colformat), the differential corpus's joins and an indexed table, single
// and joined. TestPlannerNodeCountsTPCH covers the TPC-H goldens.
func TestPlannerNodeCounts(t *testing.T) {
	ctx := context.Background()
	checked := map[string]int{}
	run := func(db *DB, sql string) {
		t.Helper()
		_, e, err := db.QueryContext(ctx, sql)
		if err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
		for kind, n := range CheckPlannedNodes(t, sql, e, sql) {
			checked[kind] += n
		}
	}
	for _, columnar := range []bool{false, true} {
		st := store.New()
		loadPush(t, st, "n", nastyHeader, nastyKinds, nastyRows(), 3, columnar)
		db := openOver(t, pushBucket, st, pushScale)
		for _, q := range pushStatements {
			run(db, fmt.Sprintf(q.sql, "n"))
		}
		db = openOver(t, diffBucket, diffStore(t, columnar))
		for _, q := range diffJoins() {
			run(db, q.sql)
		}
	}

	st := newIndexStore(t)
	var mid [][]string
	for i := 0; i < 64; i++ {
		mid = append(mid, []string{fmt.Sprint(i), fmt.Sprint(i % 8)})
	}
	if err := PartitionTable(ctx, st, testBucket, "mid", []string{"mk", "dk"}, mid, 2); err != nil {
		t.Fatal(err)
	}
	db := openIndexDB(t, st)
	if err := db.CreateIndex(ctx, "wide", "v"); err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{
		"SELECT k FROM wide WHERE v = 123",
		"SELECT k FROM wide WHERE v >= 10 AND pad LIKE 'x%'",
		"SELECT COUNT(*) AS n FROM mid JOIN wide ON mid.mk = wide.v WHERE wide.v BETWEEN 2 AND 4 AND mid.dk <= 4",
	} {
		run(db, sql)
	}
	for _, kind := range []string{"scan", "access", "index probe"} {
		if checked[kind] == 0 {
			t.Errorf("no %s request was checked: %v", kind, checked)
		}
	}
}
