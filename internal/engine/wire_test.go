package engine

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"pushdowndb/internal/race"
	"pushdowndb/internal/selectengine"
	"pushdowndb/internal/sqlparse"
	"pushdowndb/internal/store"
	"pushdowndb/internal/value"
)

// Both sides of the wire: the S3 Select engine and PushdownDB's local
// operators run one SELECT block executor (expr.RowExec). The same rows go
// through each — as a CSV payload to selectengine.Execute, as a relation of
// the very values the storage side sees (CSV text, an empty field NULL) to
// the operators, and folded as a grouped scan folds them — and the rendered
// columns, rows and error text must be identical.

var (
	wireHeader = []string{"id", "qty", "price", "flag", "name"}
	wireRows   = [][]string{
		{"1", "5", "10.50", "A", "alpha"},
		{"2", "", "3.25", "B", "  "},
		{"3", "12", "", "A", "beta"},
		{"4", "7", "NaN", "", "Alpha"},
		{"5", "5", "100", "B", ""},
		{"6", "40", "0.5", "", " 7"},
		{"7", "1", "8", "C", "7"},
	}
	wireStatements = []string{
		"SELECT id, name FROM S3Object WHERE qty >= 5 AND flag = 'A'",
		"SELECT id FROM S3Object WHERE name LIKE 'a%' OR price BETWEEN 3 AND 9 OR flag IN ('C')",
		"SELECT id FROM S3Object WHERE flag IS NULL",
		"SELECT id, qty * 2 + 1 AS q, price * (1 - 0.5) AS half, name || '!' AS n FROM S3Object",
		"SELECT UPPER(name) AS u, CAST(qty AS INT) + 1, CASE WHEN qty > 6 THEN 'big' ELSE 'small' END FROM S3Object WHERE qty IS NOT NULL",
		"SELECT * FROM S3Object WHERE id < 4",
		"SELECT *, id FROM S3Object WHERE flag = 'B'",
		"SELECT COUNT(*) AS n, SUM(qty) AS s, AVG(price) AS a, MIN(name) AS lo, MAX(name) AS hi FROM S3Object",
		"SELECT 100 * SUM(qty) / COUNT(*) AS r, 'k' AS k FROM S3Object WHERE flag = 'A'",
		"SELECT COUNT(*) AS n, COUNT(*) + 0 AS n0, SUM(qty) AS s, AVG(price) AS a, MIN(id) AS m FROM S3Object WHERE id > 1000",
		"SELECT flag, COUNT(*) AS n, SUM(qty) AS s FROM S3Object GROUP BY flag",
		"SELECT flag, qty, MAX(price) AS hi FROM S3Object GROUP BY flag, qty",
		"SELECT COUNT(*) AS n, SUM(id) AS ids FROM S3Object GROUP BY qty % 2",
		"SELECT COUNT(*) AS n, MIN(id) AS first FROM S3Object GROUP BY TRIM(name)",
		"SELECT flag, COUNT(*) AS n FROM S3Object WHERE id > 1000 GROUP BY flag",
		"SELECT id / (qty - 5) FROM S3Object",
		"SELECT nosuch FROM S3Object",
		"SELECT SUM(name) FROM S3Object",
		"SELECT name, COUNT(*) FROM S3Object GROUP BY flag",
	}
)

// wireRelation is the relation storage's CSV scan presents: each cell text,
// an empty one NULL.
func wireRelation() *Relation {
	rel := &Relation{Cols: wireHeader}
	for _, fields := range wireRows {
		row := make(Row, len(fields))
		for i, f := range fields {
			if f != "" {
				row[i] = value.Str(f)
			}
		}
		rel.Rows = append(rel.Rows, row)
	}
	return rel
}

// runLocal runs sel's SELECT block with the local operators.
func runLocal(rel *Relation, sel *sqlparse.Select) (*Relation, error) {
	rel, err := Filter(rel, sel.Where)
	switch {
	case err != nil:
		return nil, err
	case len(sel.GroupBy) > 0 || sel.HasAggregates():
		return GroupBy(rel, sel.GroupBy, sel.Items)
	}
	return Project(rel, sel.Items)
}

// runFolded runs sel's SELECT block as a grouped scan does: the filtered
// rows cut into three runs (the middle one empty), each fed in order to the
// one block groupFold binds to their columns, which the scan's tail
// finishes. A block that groups nothing runs as runLocal runs it.
func runFolded(t *testing.T, rel *Relation, sel *sqlparse.Select) (*Relation, error) {
	if !grouped(sel) {
		return runLocal(rel, sel)
	}
	rel, err := Filter(rel, sel.Where)
	if err != nil {
		return nil, err
	}
	fold, err := newGroupFold(scanSelect(columnItems(rel.Cols), nil), sel.GroupBy, sel.Items)
	if err != nil {
		return nil, err
	}
	cut := len(rel.Rows) / 2
	for _, rows := range [][]Row{rel.Rows[:cut], nil, rel.Rows[cut:]} {
		for _, row := range rows {
			if err := fold.x.Add(row); err != nil {
				return nil, err
			}
		}
		fold.rows += int64(len(rows))
	}
	return openTestDB(t, store.New()).NewExecContext(context.Background()).groupByLocal(nil, fold, sel.GroupBy, sel.Items)
}

func TestBothSidesOfTheWire(t *testing.T) {
	var payload strings.Builder
	for _, fields := range append([][]string{wireHeader}, wireRows...) {
		payload.WriteString(strings.Join(fields, ",") + "\n")
	}
	rel := wireRelation()
	for _, sql := range wireStatements {
		res, wantErr := selectengine.Execute([]byte(payload.String()), selectengine.Request{
			SQL: sql, HasHeader: true, Capabilities: selectengine.Capabilities{AllowGroupBy: true},
		})
		sel, err := sqlparse.Parse(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		for name, run := range map[string]func() (*Relation, error){
			"local":  func() (*Relation, error) { return runLocal(rel, sel) },
			"folded": func() (*Relation, error) { return runFolded(t, rel, sel) },
		} {
			got, gotErr := run()
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Errorf("%s\n%s: err %v, storage side: %v", sql, name, gotErr, wantErr)
				continue
			}
			if wantErr != nil {
				continue
			}
			rows := make([][]string, len(got.Rows))
			for i, row := range got.Rows {
				rows[i] = make([]string, len(row))
				for j, v := range row {
					rows[i][j] = v.String()
				}
			}
			local, storage := fmt.Sprintf("%v %q", got.Cols, rows), fmt.Sprintf("%v %q", res.Columns, recordsOf(t, res))
			if local != storage {
				t.Errorf("%s\n%s: %s\nstorage side: %s", sql, name, local, storage)
			}
		}
	}
}

// TestReferenceAllocatesNothingPerRow pins what the one-cursor reference
// costs: evaluating a row builds no environment and an existing group's
// key is looked up without being materialized, so the allocations of a
// filter or a group-by do not depend on how many rows go in.
func TestReferenceAllocatesNothingPerRow(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts differ under the race detector")
	}
	relOf := func(n int) *Relation {
		rel := &Relation{Cols: []string{"k", "g", "v"}}
		for i := 0; i < n; i++ {
			rel.Rows = append(rel.Rows, Row{value.Int(int64(i)), value.Str([]string{"a", "b", "c"}[i%3]), value.Int(int64(i % 7))})
		}
		return rel
	}
	pred := selectOf(t, "SELECT * FROM t WHERE v > 100 OR g = 'none'").Where
	grouped := selectOf(t, "SELECT g, COUNT(*) AS n, SUM(v) AS s, MAX(k) AS hi FROM t GROUP BY g, v % 2")
	for name, op := range map[string]func(*Relation) (*Relation, error){
		"Filter": func(rel *Relation) (*Relation, error) { return Filter(rel, pred) },
		"GroupBy": func(rel *Relation) (*Relation, error) {
			return GroupBy(rel, grouped.GroupBy, grouped.Items)
		},
	} {
		allocs := func(rel *Relation) float64 {
			return testing.AllocsPerRun(10, func() {
				if _, err := op(rel); err != nil {
					t.Fatal(err)
				}
			})
		}
		if small, large := allocs(relOf(60)), allocs(relOf(6000)); small != large {
			t.Errorf("reference %s allocates %v times over 60 rows and %v over 6000; want no per-row allocation", name, small, large)
		}
	}
}
