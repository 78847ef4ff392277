package engine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"unicode/utf8"

	"pushdowndb/internal/arena"
	"pushdowndb/internal/colformat"
	"pushdowndb/internal/csvx"
	"pushdowndb/internal/expr"
	"pushdowndb/internal/s3api"
	"pushdowndb/internal/selectengine"
	"pushdowndb/internal/sqlparse"
	"pushdowndb/internal/value"
	"pushdowndb/internal/vec"
)

// Load names a table to load and the columns its plan reads. No Cols
// loads every column.
type Load struct {
	Table string
	Cols  []string
}

// LoadTables loads the tables of one stage concurrently (see LoadTable),
// each on its own "load <table>" phase, and returns them in argument
// order — the opening move of the baseline plans.
func (e *Exec) LoadTables(stage int, loads ...Load) ([]*Relation, error) {
	return e.loadTables(stage, 0, loads...)
}

// loadTables is LoadTables metering, on each load's step, perRow units of
// the server's row work per loaded row.
func (e *Exec) loadTables(stage int, perRow int64, loads ...Load) ([]*Relation, error) {
	rels := make([]*Relation, len(loads))
	fns := make([]func() error, len(loads))
	for i, l := range loads {
		fns[i] = func() (err error) {
			rels[i], _, err = e.loadMetered("load "+l.Table, stage, l, perRow)
			return err
		}
	}
	if err := concurrently(fns...); err != nil {
		return nil, err
	}
	return rels, nil
}

// LoadTable fetches every partition with plain GETs and parses the CSV on
// the server — the paper's "server-side" baseline path. Only cols are
// typed (all of them when none are named); the GETs, and their bill, are
// whole either way.
func (e *Exec) LoadTable(phaseName string, stage int, table string, cols ...string) (*Relation, error) {
	rel, _, err := e.loadMetered(phaseName, stage, Load{Table: table, Cols: cols}, 0)
	return rel, err
}

// loadMetered is LoadTable on a step of its own, which it returns after
// metering there perRow units of the server's row work per loaded row: the
// server-side baselines' pass over every row.
func (e *Exec) loadMetered(name string, stage int, l Load, perRow int64) (*Relation, step, error) {
	st := e.step(name, name, stage, l.Table)
	rel, err := e.loadTable(st, l.Table, l.Cols)
	if err == nil {
		st.AddServerRows(int64(len(rel.Rows)) * perRow)
	}
	st.end(err)
	return rel, st, err
}

// loadTable is LoadTable metered on st.
func (e *Exec) loadTable(st step, table string, cols []string) (*Relation, error) {
	keys, err := e.parts(table)
	if err != nil {
		return nil, err
	}
	backend := e.db.backendFor(table)
	rels := make([]*Relation, len(keys))
	decodeWorkers := e.partWorkers(len(keys))
	err = e.forEachPart(keys, func(ctx context.Context, i int, key string) error {
		psp := st.sp.Child("get " + key)
		defer psp.End()
		data, err := backend.Get(ctx, e.db.bucket, key)
		if err != nil {
			return err
		}
		st.AddGetRequest(int64(len(data)))
		psp.SetInt("bytes", int64(len(data)))
		if colformat.IsColumnar(data) {
			// Columnar partitions decode straight into typed vectors; the
			// CSV decoder would mis-parse the binary layout.
			rels[i], err = fromColumnar(data, decodeWorkers, cols)
		} else {
			rels[i], err = decodeCSV(data, cols)
		}
		if errors.Is(err, errNoColumn) {
			err = s3api.NewError("get", e.db.bucket, key, s3api.KindBadRequest,
				fmt.Errorf("engine: table %q: %w", table, err))
		}
		return err
	})
	out := &Relation{}
	if err == nil {
		err = out.Concat(rels...)
	}
	if err != nil {
		return nil, err
	}
	st.sp.SetInt("rows", int64(len(out.Rows)))
	st.sp.SetInt("cols", int64(len(out.Cols)))
	return out, nil
}

// errNoColumn marks a load naming a column its table's header lacks.
var errNoColumn = errors.New("no column")

// prune narrows r.Cols, a partition's header, to the columns cols name —
// case-insensitively, each to its first match, in header order — and
// returns their header positions, ascending. No cols keeps every column,
// and prune returns nil: every position (see at).
func (r *Relation) prune(cols []string) ([]int, error) {
	if len(cols) == 0 {
		return nil, nil
	}
	keep := make([]int, 0, len(cols))
	for _, c := range cols {
		i := r.ColIndex(c)
		if i < 0 {
			return nil, fmt.Errorf("%w %q", errNoColumn, c)
		}
		keep = append(keep, i)
	}
	slices.Sort(keep)
	keep = slices.Compact(keep)
	names := make([]string, len(keep))
	for j, i := range keep {
		names[j] = r.Cols[i]
	}
	r.Cols = names
	return keep, nil
}

// at is the header position of the j-th kept column; nil keep keeps all.
func at(keep []int, j int) int {
	if keep == nil {
		return j
	}
	return keep[j]
}

// partWorkers is the worker budget of one partition's decode inside a
// fan-out over n partitions, whose decodes already run concurrently: the
// budget splits across the fan-out, so total decode concurrency matches the
// Cores budget the cost model prices.
func (e *Exec) partWorkers(n int) int { return max(e.workers()/max(n, 1), 1) }

// fromColumnar decodes a colformat object (the paper's Fig. 11 columnar
// layout) one row group at a time, reading only the chunks of the columns
// cols name (every column when none): the chunks' typed vectors are adopted
// as a batch as they are and rendered to rows, each group's cut from one
// array. Rows come from decoded chunks, never from a count a footer claims.
func fromColumnar(data []byte, workers int, cols []string) (*Relation, error) {
	r, err := colformat.Open(data)
	if err != nil {
		return nil, err
	}
	rel := &Relation{Cols: r.Schema().Names()}
	keep, err := rel.prune(cols)
	if err != nil {
		return nil, err
	}
	for g := 0; g < r.NumRowGroups(); g++ {
		vecs := make([]*vec.Vector, len(rel.Cols))
		err := vec.RunSpans(vec.RowSpans(len(vecs), workers), func(w int, sp vec.Span) (err error) {
			for c := sp.Lo; c < sp.Hi && err == nil; c++ {
				vecs[c], _, err = r.ReadColumn(g, at(keep, c))
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		for _, row := range vec.NewBatch(rel.Cols, vecs).ToRows() {
			rel.Rows = append(rel.Rows, row)
		}
	}
	return rel, nil
}

// decodeCSV types a CSV object's cells straight off the scanner: one pass,
// no intermediate rows of strings, and only the cells of the columns cols
// name (every column when none). The scanner's fields are views of data,
// and a Relation outlives the GET that fetched it, so this is where loaded
// rows come to own their bytes: the kept cells that stay text are copied
// into the partition's chunks (numbers and dates hold no bytes at all) and
// rows are windows of one array sized from the line count — an allocation
// per chunk, not per row; a surviving row keeps its partition's array
// reachable. Every row is as wide as the kept header (value.CSVCell). A
// zero-byte object has no header to prune: it decodes to no columns and no
// rows.
func decodeCSV(data []byte, cols []string) (*Relation, error) {
	sc := csvx.NewScanner(data)
	rel := &Relation{}
	var keep []int
	var cells arena.Slab[value.Value]
	if sc.Scan() {
		rel.Cols = csvx.CloneRow(sc.Fields())
		var err error
		if keep, err = rel.prune(cols); err != nil {
			return nil, err
		}
		lines := bytes.Count(data, []byte{'\n'}) // the row count, unless cells hold newlines
		rel.Rows = make([]Row, 0, lines)
		// A cell takes a byte at least: linear in the object, wide header or not.
		cells.Grow(min(lines*len(rel.Cols), len(data)))
	}
	var text []byte
	var chunks arena.Text
	for sc.Scan() {
		fields := sc.Fields()
		row := cells.Make(len(rel.Cols))
		text = text[:0]
		for j := range row {
			if row[j] = value.CSVCell(fields, at(keep, j)); row[j].Kind() == value.KindString {
				text = append(text, row[j].AsString()...)
			}
		}
		if owned := chunks.String(text); owned != "" {
			for j, v := range row {
				if v.Kind() == value.KindString {
					n := len(v.AsString())
					row[j], owned = value.Str(owned[:n]), owned[n:]
				}
			}
		}
		rel.Rows = append(rel.Rows, row)
	}
	return rel, sc.Err()
}

// SelectRows runs sql on every partition of table and concatenates the
// returned rows into a typed relation.
func (e *Exec) SelectRows(phaseName string, stage int, table, sql string) (*Relation, error) {
	return e.selectMetered(phaseName, stage, table, sql, 0)
}

// selectMetered is SelectRows metering, on its step, perRow units of the
// server's row work per returned row: what the operators finishing a pushed
// scan on the server (group-by, top-K, the Bloom build) begin with.
func (e *Exec) selectMetered(name string, stage int, table, sql string, perRow int64) (*Relation, error) {
	st := e.step(name, name, stage, table)
	rel, _, err := e.selectDecoded(st, table, sql, false)
	if err == nil {
		st.AddServerRows(int64(len(rel.Rows)) * perRow)
	}
	st.end(err)
	return rel, err
}

// selectDecoded runs sql on every partition of table, metered on st, and
// decodes each response inside the fan-out, where LoadTable decodes too: to
// a vec.Batch for a consumer that folds vectors (typed), and no row is
// built, or to rows for the rest, concatenated in partition order into the
// relation. The other result is nil.
func (e *Exec) selectDecoded(st step, table, sql string, typed bool) (*Relation, []*vec.Batch, error) {
	keys, _ := e.parts(table) // memoized; a failure is selectOnParts's to report
	batches := make([]*vec.Batch, len(keys))
	rels := make([]*Relation, len(keys))
	workers := e.partWorkers(len(keys))
	_, err := e.selectOnParts(st, table, sql, func(i int, res *selectengine.Result) {
		dec := st.sp.Child("decode")
		if typed {
			batches[i] = vec.FromStrings(res.Columns, res.Rows, workers)
		} else {
			rels[i] = FromStringsN(res.Columns, res.Rows, workers)
		}
		dec.SetInt("rows", int64(len(res.Rows)))
		dec.End()
	})
	if err != nil {
		return nil, nil, err
	}
	if typed {
		st.sp.SetInt("rows", int64(inputRows(nil, batches)))
		return nil, batches, nil
	}
	out := &Relation{}
	if err := out.Concat(rels...); err != nil {
		return nil, nil, err
	}
	st.sp.SetInt("rows", int64(len(out.Rows)))
	return out, nil, nil
}

// limitPerPart appends to sql a per-partition LIMIT under which table's
// partitions return about total rows together (used by sampling operators).
func (e *Exec) limitPerPart(table, sql string, total int64) (string, error) {
	keys, err := e.parts(table)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%s LIMIT %d", sql, max(total/int64(len(keys)), 1)), nil
}

// SelectAgg runs an aggregate-only sql on every partition and merges the
// single-row results column-wise using the given aggregate functions
// (SUM and COUNT merge by addition, MIN/MAX by comparison).
func (e *Exec) SelectAgg(phaseName string, stage int, table, sql string, merge []sqlparse.AggFunc) (_ Row, err error) {
	st := e.step(phaseName, phaseName, stage, table)
	defer func() { st.end(err) }()
	results, err := e.selectOnParts(st, table, sql, nil)
	if err != nil {
		return nil, err
	}
	states := make([]*expr.AggState, len(merge))
	for i, fn := range merge {
		// COUNT partial results merge by summation.
		if fn == sqlparse.AggCount {
			fn = sqlparse.AggSum
		}
		states[i] = expr.NewAggState(fn)
	}
	for _, res := range results {
		if len(res.Rows) != 1 {
			return nil, fmt.Errorf("engine: aggregate select returned %d rows", len(res.Rows))
		}
		if len(res.Rows[0]) != len(merge) {
			return nil, fmt.Errorf("engine: aggregate select returned %d columns, expected %d",
				len(res.Rows[0]), len(merge))
		}
		for j, f := range res.Rows[0] {
			if err := states[j].Add(value.FromCSV(f)); err != nil {
				return nil, err
			}
		}
	}
	out := make(Row, len(merge))
	for j, st := range states {
		out[j] = st.Final()
	}
	return out, nil
}

// headerProbe is TableHeader's initial ranged-GET size.
const headerProbe = 4096

// TableHeader reads a table's column names with a small ranged GET against
// the first partition (the partitions all share a header row). Header rows
// longer than the probe retry with a doubled range until a newline turns
// up or the object is exhausted (a header-only object with no trailing
// newline is accepted whole).
func (e *Exec) TableHeader(phaseName string, stage int, table string) (_ []string, err error) {
	keys, err := e.parts(table)
	if err != nil {
		return nil, err
	}
	backend := e.db.backendFor(table)
	st := e.step("header "+table, phaseName, stage, table)
	defer func() { st.end(err) }()
	for probe := int64(headerProbe); ; probe *= 2 {
		data, err := backend.GetRange(e.ctx, e.db.bucket, keys[0], 0, probe-1)
		if err != nil {
			return nil, err
		}
		st.AddGetRequest(int64(len(data)))
		st.sp.AddInt("bytes", int64(len(data)))
		if int64(len(data)) < probe && colformat.IsColumnar(data) {
			// The whole object fit in the probe and carries the columnar
			// magic (which is tail-only, so detection needs the complete
			// object): answer from the footer schema. Larger columnar
			// objects would need an extra tail request, which would shift
			// the metered request counts this path is priced on.
			r, err := colformat.Open(data)
			if err != nil {
				return nil, err
			}
			return r.Schema().Names(), nil
		}
		if nl := bytes.IndexByte(data, '\n'); nl >= 0 {
			if line := data[:nl]; bytes.IndexByte(line, 0) >= 0 || !utf8.Valid(line) {
				// Most likely a columnar object too large for the branch
				// above: its bytes are no header, and no error message.
				return nil, s3api.NewError("get_range", e.db.bucket, keys[0], s3api.KindBadRequest,
					fmt.Errorf("engine: table %q has no CSV header row (%d bytes of binary data) and no usable statistics object to name its columns", table, nl))
			}
			header, _, err := csvx.Decode(data[:nl+1], true)
			return header, err
		}
		if int64(len(data)) < probe {
			// The whole object fit in the probe and holds no newline: it
			// is a single (unterminated) header line.
			header, _, err := csvx.Decode(data, true)
			return header, err
		}
	}
}
