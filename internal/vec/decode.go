package vec

import (
	"fmt"
	"slices"

	"pushdowndb/internal/csvx"
	"pushdowndb/internal/expr"
	"pushdowndb/internal/sqlparse"
	"pushdowndb/internal/value"
)

// FromStrings decodes CSV cells straight into typed column vectors, the
// columns split across workers. Each cell goes through value.FromCSV exactly
// once and its payload is written once, into the column's []int64, []float64
// or []string; only a column that mixes kinds is boxed. Text cells share the
// input's bytes. Every row is as wide as cols (value.CSVCell).
func FromStrings(cols []string, rows [][]string, workers int) *Batch {
	b := csvBatch(cols, len(rows))
	RunSpans(colSpans(len(cols), workers), func(w int, sp Span) error {
		for i, r := range rows {
			b.putRow(i, r, sp.Lo, sp.Hi)
		}
		return nil
	})
	return b
}

// chunkRows is how many rows of a response body a Fold decodes into its
// batch at a time. Tests set it to put chunk boundaries where they choose.
var chunkRows = 1024

// Fold folds select responses' CSV bodies (a line per row, no header line)
// into one group table, in the order they are given: what a grouped scan
// does with each partition's response as it arrives. Each body is decoded a
// chunk of rows at a time into one batch whose vectors every chunk reuses,
// and each chunk is folded through Accumulate's binding, made once per
// column list. No row is built and no vector is as long as the response.
type Fold struct {
	Table *expr.Groups
	Rows  int64    // the rows folded so far
	bind  *binding // the table bound to the chunk batch
}

// NewFold returns a fold into a new table grouping by keys (none: a plain
// aggregation) and finalizing to items (expr.NewGroups).
func NewFold(keys []sqlparse.Expr, items []sqlparse.SelectItem) (*Fold, error) {
	t, err := expr.NewGroups(nil, keys, sqlparse.ItemExprs(items))
	return &Fold{Table: t}, err
}

// CSV folds body, whose columns are cols, into the table. It fails unless
// body holds exactly the rows its stats claim; the chunks before the one
// where that shows are folded already.
func (f *Fold) CSV(cols []string, body []byte, rows int64) error {
	if f.bind == nil || !slices.Equal(f.bind.b.Cols, cols) {
		f.bind = bind(f.Table, csvBatch(cols, 0))
	}
	if f.bind.err != nil {
		return f.bind.err
	}
	b, sc := f.bind.b, csvx.NewScanner(body)
	n := int64(0)
	for ; n < rows && sc.Scan(); n++ {
		i := int(n % int64(chunkRows))
		if i == 0 {
			b.lay(int(min(rows-n, int64(chunkRows))))
		}
		b.putRow(i, sc.Fields(), 0, len(cols))
		if i == b.n-1 {
			if err := f.bind.fold(0, b.n); err != nil {
				return err
			}
		}
	}
	if n != rows || sc.Scan() || sc.Err() != nil {
		return fmt.Errorf("vec: a %d-byte response body is not the %d rows its stats claim", len(body), rows)
	}
	f.Rows += rows
	return nil
}

// csvBatch is an n-row batch of untyped columns for putRow to fill.
func csvBatch(cols []string, n int) *Batch {
	b := &Batch{Cols: cols, Vecs: make([]*Vector, len(cols)), names: sqlparse.NewNames(cols)}
	b.lay(n)
	return b
}

// lay makes b n rows of untyped columns, each in its vector's own arrays
// (Over).
func (b *Batch) lay(n int) {
	for c, v := range b.Vecs {
		b.Vecs[c] = Over(v, value.KindNull, n)
	}
	b.n = n
}

// putRow types row i's cells of columns [lo, hi): the one column-builder
// step of every CSV decode, so FromStrings and Fold cannot disagree.
func (b *Batch) putRow(i int, fields []string, lo, hi int) {
	for c := lo; c < hi; c++ {
		b.Vecs[c].put(i, value.CSVCell(fields, c))
	}
}
