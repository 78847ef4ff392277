package engine

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"pushdowndb/internal/cloudsim"
)

// bigSim makes the tiny test tables behave like a deployment-scale
// dataset: transfer/parse terms dominate, so pushdown pays off.
func bigSim() cloudsim.Scale {
	return cloudsim.Scale{DataRatio: 1e5, PartRatio: 8}
}

func TestPlannerPicksBloomJoinWhenSelective(t *testing.T) {
	db, _ := newTestDB(t)
	db.Sim = bigSim()
	sql := "SELECT SUM(o.price) AS total, COUNT(*) AS n FROM cust c JOIN ords o ON c.ck = o.ck WHERE c.bal <= -500"
	rel, e, err := db.QueryContext(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	plan := e.QueryPlan()
	if plan == nil || len(plan.Steps) != 1 {
		t.Fatalf("plan = %+v", plan)
	}
	step := plan.Steps[0]
	if step.Strategy != StrategyBloom {
		t.Errorf("strategy = %s, want bloom\nestimates: %+v\nreason: %s",
			step.Strategy, step.Estimates, step.Reason)
	}
	if step.BuildName != "c" {
		t.Errorf("build side = %s, want the filtered customer side", step.BuildName)
	}

	// The SQL answer must match the explicit Bloom join's.
	opDB, _ := newTestDB(t)
	opDB.Sim = bigSim()
	assertSameAgg(t, rel, joinRel(t, opDB, JoinSpec{SQL: sql, Seed: 7}, StrategyBloom))
}

func TestPlannerPicksBaselineJoinWhenUnselective(t *testing.T) {
	db, _ := newTestDB(t)
	// Unit scale, no filters: pushdown scans cost money while plain GETs
	// transfer for free in-region, so baseline wins.
	sql := "SELECT COUNT(*) AS n FROM cust c JOIN ords o ON c.ck = o.ck"
	rel, e, err := db.QueryContext(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	step := e.QueryPlan().Steps[0]
	if step.Strategy != StrategyBaseline {
		t.Errorf("strategy = %s, want baseline\nestimates: %+v", step.Strategy, step.Estimates)
	}

	assertSameAgg(t, rel, joinRel(t, db, JoinSpec{SQL: sql}, StrategyBaseline))
}

func assertSameAgg(t *testing.T, got, want *Relation) {
	t.Helper()
	if len(got.Rows) != 1 || len(want.Rows) != 1 {
		t.Fatalf("agg rows: got %d, want %d", len(got.Rows), len(want.Rows))
	}
	for i := range want.Rows[0] {
		a, _ := want.Rows[0][i].Num()
		b, _ := got.Rows[0][i].Num()
		if diff := a - b; diff > 0.01 || diff < -0.01 {
			t.Errorf("agg item %d: %v != %v", i, b, a)
		}
	}
}

func TestPlannerCommaJoin(t *testing.T) {
	db, _ := newTestDB(t)
	db.Sim = bigSim()
	rel, e, err := db.QueryContext(context.Background(),
		"SELECT COUNT(*) AS n FROM cust c, ords o WHERE c.ck = o.ck AND c.bal <= -500")
	if err != nil {
		t.Fatal(err)
	}
	if e.QueryPlan() == nil {
		t.Fatal("comma join should go through the planner")
	}
	want := joinRel(t, db, JoinSpec{SQL: "SELECT COUNT(*) AS n FROM cust c JOIN ords o ON c.ck = o.ck WHERE c.bal <= -500"}, StrategyBaseline)
	assertSameAgg(t, rel, want)
}

func TestPlannerJoinGroupByOrderByLimit(t *testing.T) {
	db, _ := newTestDB(t)
	rel, _, err := db.QueryContext(context.Background(),
		"SELECT c.ck, SUM(o.price) AS total FROM cust c JOIN ords o ON c.ck = o.ck GROUP BY c.ck ORDER BY total DESC LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	if len(rel.Rows) != 5 || len(rel.Cols) != 2 {
		t.Fatalf("shape = %v %d rows", rel.Cols, len(rel.Rows))
	}
	a, _ := rel.Rows[0][1].Num()
	b, _ := rel.Rows[4][1].Num()
	if a < b {
		t.Error("not sorted by total desc")
	}
}

func TestPlannerResidualPredicate(t *testing.T) {
	db, _ := newTestDB(t)
	// bal < price compares columns of different tables: not pushable, not
	// an equi-join key — must be evaluated locally after the join.
	rel, e, err := db.QueryContext(context.Background(),
		"SELECT COUNT(*) AS n FROM cust c JOIN ords o ON c.ck = o.ck WHERE c.bal < o.price")
	if err != nil {
		t.Fatal(err)
	}
	if e.QueryPlan().Residual == nil {
		t.Error("expected a residual predicate in the plan")
	}
	// Cross-check by hand.
	join := joinRel(t, db, JoinSpec{SQL: "SELECT * FROM cust c JOIN ords o ON c.ck = o.ck"}, StrategyBaseline)
	filtered, err := localRef(join, "SELECT * FROM t WHERE bal < price")
	if err != nil {
		t.Fatal(err)
	}
	if mustInt(rel.Rows[0][0]) != int64(len(filtered.Rows)) {
		t.Errorf("residual count = %v, want %d", rel.Rows[0][0], len(filtered.Rows))
	}
}

func TestPlannerThreeTableChain(t *testing.T) {
	db, st := newTestDB(t)
	// A third table keyed by order: items(ok, qty).
	var items [][]string
	for i := 0; i < 400; i++ {
		items = append(items, []string{intStr(i), intStr(i % 7)})
	}
	if err := PartitionTable(context.Background(), st, testBucket, "items", []string{"iok", "qty"}, items, 2); err != nil {
		t.Fatal(err)
	}
	db.Sim = bigSim()
	rel, e, err := db.QueryContext(context.Background(),
		"SELECT COUNT(*) AS n, SUM(i.qty) AS q FROM cust c JOIN ords o ON c.ck = o.ck JOIN items i ON o.ok = i.iok WHERE c.bal <= -500")
	if err != nil {
		t.Fatal(err)
	}
	plan := e.QueryPlan()
	if len(plan.Steps) != 2 {
		t.Fatalf("steps = %d", len(plan.Steps))
	}
	if plan.Steps[1].Strategy != StrategyBloom && plan.Steps[1].Strategy != StrategyFiltered {
		t.Errorf("chain step strategy = %q", plan.Steps[1].Strategy)
	}
	// Cross-check with explicit operators.
	join1 := joinRel(t, db, JoinSpec{SQL: "SELECT * FROM cust c JOIN ords o ON c.ck = o.ck WHERE c.bal <= -500"}, StrategyBaseline)
	itemsRel, err := db.NewExec().LoadTable("load", 0, "items")
	if err != nil {
		t.Fatal(err)
	}
	join2, err := HashJoin(join1, itemsRel, "ok", "iok")
	if err != nil {
		t.Fatal(err)
	}
	want, err := localRef(join2, "SELECT COUNT(*) AS n, SUM(qty) AS q FROM t")
	if err != nil {
		t.Fatal(err)
	}
	assertSameAgg(t, rel, want)
}

func TestPlannerStatsCache(t *testing.T) {
	db, _ := newTestDB(t)
	sql := "SELECT COUNT(*) AS n FROM cust c JOIN ords o ON c.ck = o.ck WHERE c.bal <= -500"
	if _, _, err := db.QueryContext(context.Background(), sql); err != nil {
		t.Fatal(err)
	}
	plan, _, err := planOf(db, sql)
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range plan.Scans {
		if !sc.CachedStats {
			t.Errorf("scan %s should reuse cached stats on the second run", sc.Table)
		}
	}
	db.InvalidateStats()
	plan, _, err = planOf(db, sql)
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range plan.Scans {
		if sc.CachedStats {
			t.Errorf("scan %s should re-probe after InvalidateStats", sc.Table)
		}
	}
}

func TestPlannerExplain(t *testing.T) {
	db, _ := newTestDB(t)
	db.Sim = bigSim()
	plan, err := explain(context.Background(), db,
		"SELECT SUM(o.price) AS total FROM cust c JOIN ords o ON c.ck = o.ck WHERE c.bal <= -500 LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"join plan", "scan c:", "scan o:", "strategy:", "est baseline:", "est bloom:", "LIMIT 3"} {
		if !strings.Contains(plan, frag) {
			t.Errorf("explain missing %q:\n%s", frag, plan)
		}
	}
}

func TestPlannerRejectsAmbiguousColumns(t *testing.T) {
	db, st := newTestDB(t)
	// acct(ck2, bal) duplicates cust's "bal" column under a different key.
	var rows [][]string
	for i := 0; i < 50; i++ {
		rows = append(rows, []string{intStr(i), intStr(i * 10)})
	}
	if err := PartitionTable(context.Background(), st, testBucket, "acct", []string{"ck2", "bal"}, rows, 2); err != nil {
		t.Fatal(err)
	}
	// Referencing the duplicated, non-equated "bal" after the join must be
	// rejected: qualifiers are not preserved in the join result, so b.bal
	// would silently bind to cust's copy.
	for _, sql := range []string{
		"SELECT c.bal, b.bal FROM cust c JOIN acct b ON c.ck = b.ck2",
		"SELECT COUNT(*) AS n FROM cust c JOIN acct b ON c.ck = b.ck2 WHERE c.bal < b.bal",
		"SELECT COUNT(*) AS n, bal FROM cust c JOIN acct b ON c.ck = b.ck2 GROUP BY bal",
	} {
		if _, _, err := db.QueryContext(context.Background(), sql); err == nil || !strings.Contains(err.Error(), "ambiguous") {
			t.Errorf("%s: err = %v, want ambiguous-column rejection", sql, err)
		}
	}
	// An unqualified pushed WHERE filter over a duplicated name is the
	// same silent guess and must be rejected too.
	if _, _, err := db.QueryContext(context.Background(),
		"SELECT COUNT(*) AS n FROM cust c JOIN acct b ON c.ck = b.ck2 WHERE bal < 100"); err == nil ||
		!strings.Contains(err.Error(), "ambiguous") {
		t.Errorf("unqualified filter over duplicate name: err = %v, want ambiguity rejection", err)
	}
	// A qualified pushed filter names its table explicitly: allowed.
	if _, _, err := db.QueryContext(context.Background(),
		"SELECT COUNT(*) AS n FROM cust c JOIN acct b ON c.ck = b.ck2 WHERE c.bal < 100"); err != nil {
		t.Errorf("qualified pushed filter should be allowed: %v", err)
	}
	// Same-name join keys are exempt: both copies are equal in the result.
	if _, _, err := db.QueryContext(context.Background(),
		"SELECT c.ck, COUNT(*) AS n FROM cust c JOIN ords o ON c.ck = o.ck GROUP BY c.ck"); err != nil {
		t.Errorf("equated duplicate key should be allowed: %v", err)
	}
	// An unqualified filter on an equated key is sound (copies are equal).
	if _, _, err := db.QueryContext(context.Background(),
		"SELECT COUNT(*) AS n FROM cust c JOIN ords o ON c.ck = o.ck WHERE ck < 50"); err != nil {
		t.Errorf("unqualified filter on equated key should be allowed: %v", err)
	}
}

func TestPlannerRejectsAmbiguousChainJoinKey(t *testing.T) {
	db, st := newTestDB(t)
	// Three tables all providing "id"; only b.id = c.id is equated, so a
	// chain key or qualified reference over "id" could bind to a.id.
	mk := func(name string, cols []string, rows [][]string) {
		if err := PartitionTable(context.Background(), st, testBucket, name, cols, rows, 2); err != nil {
			t.Fatal(err)
		}
	}
	mk("ta", []string{"id", "x"}, [][]string{{"100", "1"}, {"200", "2"}})
	mk("tb", []string{"id", "a_x"}, [][]string{{"7", "1"}, {"8", "2"}})
	mk("tc", []string{"id", "y"}, [][]string{{"7", "111"}, {"100", "999"}})
	// The second step's build key "id" is ambiguous on the intermediate
	// (ta.id vs tb.id) — must be rejected, not silently joined on ta.id.
	if _, _, err := db.QueryContext(context.Background(),
		"SELECT c.y FROM ta a JOIN tb b ON a.x = b.a_x JOIN tc c ON b.id = c.id"); err == nil ||
		!strings.Contains(err.Error(), "ambiguous") {
		t.Errorf("chain key over duplicated name: err = %v, want ambiguity rejection", err)
	}
	// A qualified reference to a partially-equated duplicate is rejected
	// too: b.id ~ c.id, but a.id is a distinct value in the same rows.
	if _, _, err := db.QueryContext(context.Background(),
		"SELECT b.id FROM ta a JOIN tb b ON a.x = b.a_x JOIN tc c ON b.id = c.id"); err == nil ||
		!strings.Contains(err.Error(), "ambiguous") {
		t.Errorf("partially-equated duplicate: err = %v, want ambiguity rejection", err)
	}
}

func TestPlannerEmptyJoinCountIsZero(t *testing.T) {
	db, _ := newTestDB(t)
	rel, _, err := db.QueryContext(context.Background(),
		"SELECT COUNT(*) AS n, SUM(o.price) AS total FROM cust c JOIN ords o ON c.ck = o.ck WHERE c.bal < -99999")
	if err != nil {
		t.Fatal(err)
	}
	if len(rel.Rows) != 1 {
		t.Fatalf("rows = %d", len(rel.Rows))
	}
	if n, ok := rel.Rows[0][0].IntNum(); !ok || n != 0 {
		t.Errorf("COUNT(*) over empty join = %v, want 0", rel.Rows[0][0])
	}
	if !rel.Rows[0][1].IsNull() {
		t.Errorf("SUM over empty join = %v, want NULL", rel.Rows[0][1])
	}
	// Arithmetic wrapping a COUNT still evaluates (0 + 0 = 0, not NULL).
	rel, _, err = db.QueryContext(context.Background(),
		"SELECT COUNT(*) + 0 AS n FROM cust c JOIN ords o ON c.ck = o.ck WHERE c.bal < -99999")
	if err != nil {
		t.Fatal(err)
	}
	if n, ok := rel.Rows[0][0].IntNum(); !ok || n != 0 {
		t.Errorf("COUNT(*) + 0 over empty join = %v, want 0", rel.Rows[0][0])
	}
}

func TestPlannerRejectsDuplicateAliases(t *testing.T) {
	db, _ := newTestDB(t)
	for _, sql := range []string{
		"SELECT COUNT(*) AS n FROM cust c JOIN ords c ON c.ck = c.ck",
		"SELECT COUNT(*) AS n FROM cust JOIN cust ON ck = ck",
	} {
		if _, _, err := db.QueryContext(context.Background(), sql); err == nil || !strings.Contains(err.Error(), "duplicate table") {
			t.Errorf("%s: err = %v, want duplicate-alias rejection", sql, err)
		}
	}
}

func TestPlannerRejectsAmbiguousJoinKey(t *testing.T) {
	db, st := newTestDB(t)
	// users(id, name) and torders(id, user_id): unqualified "id" in a join
	// condition could mean either table.
	if err := PartitionTable(context.Background(), st, testBucket, "users",
		[]string{"id", "name"}, [][]string{{"1", "a"}, {"2", "b"}}, 2); err != nil {
		t.Fatal(err)
	}
	if err := PartitionTable(context.Background(), st, testBucket, "torders",
		[]string{"id", "user_id"}, [][]string{{"10", "1"}, {"11", "2"}}, 2); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.QueryContext(context.Background(),
		"SELECT COUNT(*) AS n FROM users u JOIN torders o ON id = user_id"); err == nil ||
		!strings.Contains(err.Error(), "ambiguous") {
		t.Errorf("unqualified ambiguous join key: err = %v, want ambiguity rejection", err)
	}
	// Same query with the tables flipped mis-classifies the condition as a
	// single-table filter; it must still surface an ambiguity error, not a
	// cross-join complaint.
	if _, _, err := db.QueryContext(context.Background(),
		"SELECT COUNT(*) AS n FROM torders o JOIN users u ON id = user_id"); err == nil ||
		!strings.Contains(err.Error(), "ambiguous") {
		t.Errorf("flipped ambiguous join key: err = %v, want ambiguity rejection", err)
	}
	// Qualified keys are fine.
	if _, _, err := db.QueryContext(context.Background(),
		"SELECT COUNT(*) AS n FROM users u JOIN torders o ON u.id = o.user_id"); err != nil {
		t.Errorf("qualified join key should work: %v", err)
	}
}

func TestPlannerErrors(t *testing.T) {
	db, _ := newTestDB(t)
	// No connecting predicate: cross joins are rejected.
	if _, _, err := db.QueryContext(context.Background(), "SELECT COUNT(*) AS n FROM cust, ords"); err == nil {
		t.Error("cross join should error")
	}
	// Unknown column in a join condition.
	if _, _, err := db.QueryContext(context.Background(), "SELECT COUNT(*) AS n FROM cust c JOIN ords o ON c.nope = o.ck"); err == nil {
		t.Error("unknown join column should error")
	}
	// Unknown qualifier.
	if _, _, err := db.QueryContext(context.Background(), "SELECT COUNT(*) AS n FROM cust c JOIN ords o ON x.ck = o.ck"); err == nil {
		t.Error("unknown alias should error")
	}
}

func TestPlannerProbeCostIsAccounted(t *testing.T) {
	db, st := newTestDB(t)
	sql := "SELECT COUNT(*) AS n FROM cust c JOIN ords o ON c.ck = o.ck WHERE c.bal <= -500"
	_, e, err := db.QueryContext(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	// Planning reads each table's statistics object and evaluates the
	// filter over its sample: both must show up in the query's own metrics.
	if req, scan, _, get := e.Metrics.Totals(); req < 2 || get == 0 || scan != 0 || e.Metrics.PhaseSeconds("plan stats ") <= 0 {
		t.Errorf("planning from statistics objects: %d requests, %d GET bytes, %d scanned, %.4fs; want 2 metered GETs and no scan",
			req, get, scan, e.Metrics.PhaseSeconds("plan stats "))
	}
	// Without the objects the planner's COUNT(*) probes scan both tables;
	// their scan bytes must show up the same way.
	for _, table := range []string{"cust", "ords"} {
		st.Delete(testBucket, StatsKey(table))
	}
	db.InvalidateStats()
	if _, e, err = db.QueryContext(context.Background(), sql); err != nil {
		t.Fatal(err)
	}
	if _, scan, _, _ := e.Metrics.Totals(); scan == 0 {
		t.Error("planning probes should be metered")
	}
}

func intStr(i int) string { return fmt.Sprint(i) }

// accessOf returns the access decision of the single-table statement e
// planned (nil when it had none to make).
func accessOf(e *Exec) *AccessPlan { return e.QueryPlan().Scans[0].Access }

// planOf plans sql without running it (EXPLAIN) and returns its plan and
// the Exec that planned it.
func planOf(db *DB, sql string) (*QueryPlan, *Exec, error) {
	_, e, err := db.ExecStatement(context.Background(), "EXPLAIN "+sql)
	if err != nil {
		return nil, e, err
	}
	return e.QueryPlan(), e, nil
}
