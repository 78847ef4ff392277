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
	"slices"
	"strings"

	"pushdowndb/internal/value"
)

// Row is one tuple.
type Row []value.Value

// Relation is a materialized set of rows with named columns.
type Relation struct {
	Cols []string
	Rows []Row
}

// ColIndex resolves a column name case-insensitively, or -1.
func (r *Relation) ColIndex(name string) int {
	for i, c := range r.Cols {
		if strings.EqualFold(c, name) {
			return i
		}
	}
	return -1
}

// rowEnv is the expr.Env view of one row of a relation. The reference
// operators use one as a cursor, moving row over the relation's rows.
type rowEnv struct {
	rel *Relation
	row Row
}

// Lookup reads a cell past the row's end as NULL (value.CSVCell's rule), so
// a hand-built relation reads as a decoded one.
func (e *rowEnv) Lookup(_, name string) (value.Value, bool) {
	i := e.rel.ColIndex(name)
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

// Concat appends the others' rows (columns must match in count), growing
// the row slice once for all of them. A relation with neither columns nor
// rows — a zero-byte partition's — is skipped.
func (r *Relation) Concat(others ...*Relation) error {
	n := 0
	for _, other := range others {
		n += len(other.Rows)
	}
	r.Rows = slices.Grow(r.Rows, n)
	for _, other := range others {
		if len(other.Cols) == 0 && len(other.Rows) == 0 {
			continue
		}
		if len(r.Cols) == 0 {
			r.Cols = other.Cols
		}
		if len(other.Cols) != len(r.Cols) {
			return fmt.Errorf("engine: concat arity mismatch: %v vs %v", r.Cols, other.Cols)
		}
		r.Rows = append(r.Rows, other.Rows...)
	}
	return nil
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
