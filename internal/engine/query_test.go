package engine

import (
	"context"
	"strings"
	"testing"
)

func TestQueryFullPushdown(t *testing.T) {
	db, _ := newTestDB(t)
	rel, e, err := db.QueryContext(context.Background(), "SELECT k, v FROM events WHERE v <= -45 LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	if len(rel.Rows) > 5 {
		t.Fatalf("limit not applied: %d rows", len(rel.Rows))
	}
	if len(rel.Cols) != 2 {
		t.Fatalf("cols = %v", rel.Cols)
	}
	// Fully pushed: returned bytes should be tiny vs the table.
	_, _, returned, get := e.Metrics.Totals()
	if get != 0 {
		t.Error("full pushdown should not use plain GETs")
	}
	if returned > 2000 {
		t.Errorf("returned %d bytes, expected a handful of rows", returned)
	}
}

func TestQueryGroupByOrderBy(t *testing.T) {
	db, _ := newTestDB(t)
	rel, _, err := db.QueryContext(context.Background(), "SELECT g, SUM(v) AS total, COUNT(*) AS n FROM events GROUP BY g ORDER BY g")
	if err != nil {
		t.Fatal(err)
	}
	if len(rel.Rows) != 10 {
		t.Fatalf("groups = %d", len(rel.Rows))
	}
	// ORDER BY g ascending.
	for i := 1; i < len(rel.Rows); i++ {
		a, _ := rel.Rows[i-1][0].IntNum()
		b, _ := rel.Rows[i][0].IntNum()
		if a > b {
			t.Fatal("not sorted")
		}
	}
	// Cross-check against the operator API.
	want, err := db.NewExec().ServerSideGroupBy("events", "g", groupAggs(), "")
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Rows) != len(rel.Rows) {
		t.Fatalf("row count mismatch vs operator API")
	}
}

func TestQueryAggregateOnly(t *testing.T) {
	db, _ := newTestDB(t)
	rel, _, err := db.QueryContext(context.Background(), "SELECT COUNT(*) AS n, MIN(v) AS mn FROM events WHERE g = 3")
	if err != nil {
		t.Fatal(err)
	}
	if len(rel.Rows) != 1 || mustInt(rel.Rows[0][0]) <= 0 {
		t.Fatalf("agg result = %v", rel)
	}
}

func TestQueryOrderByAlias(t *testing.T) {
	db, _ := newTestDB(t)
	rel, _, err := db.QueryContext(context.Background(), "SELECT g, SUM(v) AS total FROM events GROUP BY g ORDER BY total DESC LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	if len(rel.Rows) != 3 {
		t.Fatalf("rows = %d", len(rel.Rows))
	}
	a, _ := rel.Rows[0][1].Num()
	b, _ := rel.Rows[2][1].Num()
	if a < b {
		t.Error("not sorted by alias desc")
	}
}

func TestQueryErrors(t *testing.T) {
	db, _ := newTestDB(t)
	if _, _, err := db.QueryContext(context.Background(), "not sql"); err == nil {
		t.Error("bad sql should error")
	}
	if _, _, err := db.QueryContext(context.Background(), "SELECT x FROM nosuchtable"); err == nil {
		t.Error("missing table should error")
	}
}

func TestExplain(t *testing.T) {
	db, _ := newTestDB(t)
	plan, err := db.ExplainContext(context.Background(), "SELECT k FROM events WHERE v < 0 LIMIT 3")
	if err != nil || !strings.Contains(plan, "full pushdown") {
		t.Errorf("plan = %q, %v", plan, err)
	}
	plan, err = db.ExplainContext(context.Background(), "SELECT g, SUM(v) FROM events GROUP BY g ORDER BY g LIMIT 2")
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"projection pushdown", "GROUP BY", "ORDER BY", "LIMIT 2"} {
		if !strings.Contains(plan, frag) {
			t.Errorf("plan missing %q:\n%s", frag, plan)
		}
	}
	if _, err := db.ExplainContext(context.Background(), "garbage"); err == nil {
		t.Error("bad sql should error")
	}
}
