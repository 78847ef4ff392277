// Package engine implements PushdownDB: a row-based analytical query
// engine (Section III of the paper) whose operators are decomposed to push
// work into the storage service via S3 Select. The package provides
//
//   - local relational operators (filter, project, hash join, group-by,
//     sort, top-K) over in-memory relations;
//   - metered scan primitives (whole-table GET loads, parallel S3 Select
//     scans, ranged GETs) that record their activity in a cloudsim.Metrics
//     virtual clock;
//   - the paper's operator decompositions: S3-side filtering and indexing
//     (Section IV), baseline/filtered/Bloom joins (Section V), server-side/
//     filtered/S3-side/hybrid group-by (Section VI) and server-side/
//     sampling top-K (Section VII).
package engine

import (
	"fmt"
	"strings"

	"pushdowndb/internal/sqlparse"
	"pushdowndb/internal/value"
)

// Row is one tuple.
type Row = []value.Value

// Relation is a materialized set of rows with named columns.
type Relation struct {
	Cols []string
	Rows []Row
}

// ColIndex resolves a column name by the name rule (sqlparse.Names), or -1.
func (r *Relation) ColIndex(name string) int {
	return sqlparse.NewNames(r.Cols).Index(name)
}

// rowEnv is the expr.Env view of one row of a relation. The row path uses
// one as a cursor, moving row (rel.Rows[i]) over a span of the rows.
type rowEnv struct {
	rel   *Relation
	names sqlparse.Names // rel's
	i     int
	row   Row
}

// cursor returns a reference cursor over rel.
func cursor(rel *Relation) *rowEnv {
	return &rowEnv{rel: rel, names: sqlparse.NewNames(rel.Cols)}
}

// Lookup reads a cell past the row's end as NULL (value.CSVCell's rule), so
// a hand-built relation reads as a decoded one.
func (e *rowEnv) Lookup(_, name string) (value.Value, bool) {
	i := e.names.Index(name)
	if i < 0 {
		return value.Null(), false
	}
	if i >= len(e.row) {
		return value.Null(), true
	}
	return e.row[i], true
}

// LimitLocal truncates to n rows.
func LimitLocal(rel *Relation, n int) *Relation {
	if n < 0 || n >= len(rel.Rows) {
		return rel
	}
	return &Relation{Cols: rel.Cols, Rows: rel.Rows[:n]}
}

// String renders a small relation for debugging and examples.
func (r *Relation) String() string {
	var b strings.Builder
	b.WriteString(strings.Join(r.Cols, " | "))
	b.WriteByte('\n')
	for i, row := range r.Rows {
		if i >= 20 {
			fmt.Fprintf(&b, "... (%d rows total)\n", len(r.Rows))
			break
		}
		parts := make([]string, len(row))
		for j, v := range row {
			parts[j] = v.String()
		}
		b.WriteString(strings.Join(parts, " | "))
		b.WriteByte('\n')
	}
	return b.String()
}
