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
			rels[i], err = e.loadMetered("load "+l.Table, stage, l, perRow, nil)
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
	return e.loadMetered(phaseName, stage, Load{Table: table, Cols: cols}, 0, nil)
}

// loadMetered is LoadTable on a step of its own, metering there perRow units
// of the server's row work per loaded row: the server-side baselines' pass
// over every row. A non-nil bind is loadTable's.
func (e *Exec) loadMetered(name string, stage int, l Load, perRow int64, bind func(header []string) error) (*Relation, error) {
	st := e.step(name, name, stage, l.Table)
	rel, err := e.loadTable(st, l.Table, l.Cols, bind)
	if err == nil {
		st.AddServerRows(int64(len(rel.Rows)) * perRow)
	}
	st.end(err)
	return rel, err
}

// loadTable is LoadTable metered on st. With a bind, the first partition is
// fetched and decoded alone and its header handed to bind, and the others
// are fetched only if bind accepts it: a statement the table cannot answer
// costs one GET.
func (e *Exec) loadTable(st step, table string, cols []string, bind func(header []string) error) (*Relation, error) {
	keys, err := e.parts(table)
	if err != nil {
		return nil, err
	}
	s := e.db.store(table)
	parts := make([]part, len(keys))
	decodeWorkers := e.partWorkers(len(keys))
	fetch := func(ctx context.Context, i int, key string) error {
		psp := st.sp.Child("get " + key)
		defer psp.End()
		data, err := s.Get(ctx, st.Phase, key)
		if err != nil {
			return err
		}
		psp.SetInt("bytes", int64(len(data)))
		if colformat.IsColumnar(data) {
			// Columnar partitions decode straight into typed vectors; the
			// CSV decoder would mis-parse the binary layout.
			parts[i], err = fromColumnar(data, decodeWorkers, cols)
		} else {
			parts[i], err = decodeCSV(data, cols)
		}
		if errors.Is(err, errNoColumn) {
			err = s3api.NewError("get", e.db.bucket, key, s3api.KindBadRequest,
				fmt.Errorf("engine: table %q: %w", table, err))
		}
		return err
	}
	first := 0 // the partitions fetched before the fan-out
	if bind != nil && len(keys) > 0 {
		if err = fetch(e.ctx, 0, keys[0]); err == nil {
			err = bind(parts[0].cols)
		}
		if err != nil {
			return nil, err
		}
		first = 1
	}
	err = e.forEachPart(keys[first:], func(ctx context.Context, i int, key string) error { return fetch(ctx, first+i, key) })
	var out *Relation
	if err == nil {
		out, err = cutRows(parts)
	}
	if err != nil {
		return nil, err
	}
	st.sp.SetInt("rows", int64(len(out.Rows)))
	st.sp.SetInt("cols", int64(len(out.Cols)))
	return out, nil
}

// part is one partition's decoded rows, row-major in one array: rows rows
// of len(cols) cells. A scan decodes each partition into its part inside
// its fan-out, and cuts the rows of all of them once after it (cutRows), so
// the decode never hands out a window of an array it may still grow.
type part struct {
	cols  []string
	cells []value.Value
	rows  int
}

// row appends a zeroed row to p and returns it, for the decoder to fill. It
// may move p.cells, which is why no row is cut before the decode ends.
func (p *part) row() []value.Value {
	n := len(p.cells)
	p.cells = slices.Grow(p.cells, len(p.cols))[:n+len(p.cols)]
	p.rows++
	return p.cells[n:]
}

// cutRows is the relation of parts' rows in partition order: one []Row for
// all of them, row k of a part the window cells[k*w:(k+1)*w:(k+1)*w] of its
// array — an append to a row reallocates it, never writing into the next; a
// surviving row keeps its partition's array reachable. A part with neither
// columns nor rows, a zero-byte partition's, is skipped; the rest must be
// as wide as each other.
func cutRows(parts []part) (*Relation, error) {
	out := &Relation{}
	n := 0
	for _, p := range parts {
		n += p.rows
	}
	out.Rows = make([]Row, 0, n)
	for _, p := range parts {
		if len(p.cols) == 0 && p.rows == 0 {
			continue
		}
		if out.Cols == nil {
			out.Cols = p.cols
		}
		w := len(p.cols)
		if w != len(out.Cols) {
			return nil, fmt.Errorf("engine: partitions differ in width: %v vs %v", out.Cols, p.cols)
		}
		for k := range p.rows {
			out.Rows = append(out.Rows, p.cells[k*w:(k+1)*w:(k+1)*w])
		}
	}
	return out, nil
}

// errNoColumn marks a load naming a column its table's header lacks.
var errNoColumn = errors.New("no column")

// prune narrows header, a partition's, to the columns cols name — by the
// name rule (sqlparse.Names), in header order — and returns the kept names
// and their header positions, ascending. No cols keeps every column, and
// prune returns nil positions: every position (see at).
func prune(header, cols []string) ([]string, []int, error) {
	if len(cols) == 0 {
		return header, nil, nil
	}
	names := sqlparse.NewNames(header)
	keep := make([]int, 0, len(cols))
	for _, c := range cols {
		i := names.Index(c)
		if i < 0 {
			return nil, nil, fmt.Errorf("%w %q", errNoColumn, c)
		}
		keep = append(keep, i)
	}
	slices.Sort(keep)
	keep = slices.Compact(keep)
	kept := make([]string, len(keep))
	for j, i := range keep {
		kept[j] = header[i]
	}
	return kept, keep, nil
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
// Cores budget the cost model prices. That budget (cloudsim.Config.Workers,
// capped at Cores) is the server's worker pool: the paper's compute node is
// a 32-core r4.8xlarge, and pushdown only pays off against a server that is
// itself well-utilized, so row work (columnar chunk decode, top-K heaps,
// Bloom keys, join materialization, the vec kernels) splits across it. Each
// worker owns a contiguous ascending row range and partial results merge in
// worker order, so the output is byte-identical to the workers=1 run.
func (e *Exec) partWorkers(n int) int { return max(e.workers()/max(n, 1), 1) }

// fromColumnar decodes a colformat object (the paper's Fig. 11 columnar
// layout) one row group at a time, reading only the chunks of the columns
// cols name (every column when none), each into its one vector by the
// worker whose span holds it, and appends the group's rows to the part
// before the next group overwrites the vectors. Rows come from decoded
// chunks, never from a count a footer claims.
func fromColumnar(data []byte, workers int, cols []string) (part, error) {
	r, err := colformat.Open(data)
	if err != nil {
		return part{}, err
	}
	var p part
	var keep []int
	if p.cols, keep, err = prune(r.Schema().Names(), cols); err != nil {
		return part{}, err
	}
	vecs := make([]*vec.Vector, len(p.cols))
	for g := 0; g < r.NumRowGroups(); g++ {
		err := vec.RunSpans(vec.RowSpans(len(vecs), workers), func(w int, sp vec.Span) (err error) {
			for c := sp.Lo; c < sp.Hi && err == nil; c++ {
				vecs[c], _, err = r.ReadColumn(g, at(keep, c), vecs[c])
			}
			return err
		})
		if err != nil {
			return part{}, err
		}
		n := 0 // the decoded chunks' length, as vec.NewBatch reads it
		if len(vecs) > 0 {
			n = vecs[0].Len()
		}
		p.cells = slices.Grow(p.cells, n*len(vecs))
		for i := range n {
			row := p.row()
			for c, v := range vecs {
				row[c] = v.Value(i)
			}
		}
	}
	return p, nil
}

// decodeCSV types a CSV object's cells straight off the scanner: one pass,
// no intermediate rows of strings, and only the cells of the columns cols
// name (every column when none). The scanner's fields are views of data,
// and a Relation outlives the GET that fetched it, so this is where loaded
// rows come to own their bytes: the kept cells that stay text are copied
// into the partition's chunks (numbers and dates hold no bytes at all), and
// the cells go into one array sized from the line count. Every row is as
// wide as the kept header (value.CSVCell). A zero-byte object has no header
// to prune: it decodes to no columns and no rows.
func decodeCSV(data []byte, cols []string) (part, error) {
	sc := csvx.NewScanner(data)
	var p part
	var keep []int
	if sc.Scan() {
		var err error
		if p.cols, keep, err = prune(csvx.CloneRow(sc.Fields()), cols); err != nil {
			return part{}, err
		}
		lines := bytes.Count(data, []byte{'\n'}) // the row count, unless cells hold newlines
		// A cell takes a byte at least: linear in the object, wide header or not.
		p.cells = make([]value.Value, 0, min(lines*len(p.cols), len(data)))
	}
	var text []byte
	var chunks arena.Text
	for sc.Scan() {
		fields := sc.Fields()
		row := p.row()
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
	}
	return p, sc.Err()
}

// decodeRows types CSV rows with no header line under cols — a select
// response's body, or the rows an IndexScan fetched by range — by
// decodeCSV's rule, every row as wide as cols (value.CSVCell), into one
// array presized for n rows. Text cells view body, which its owner never
// modifies.
func decodeRows(cols []string, body []byte, n int) (part, error) {
	p := part{cols: cols, cells: make([]value.Value, 0, min(n*len(cols), len(body)))}
	_, err := scanRows(body, p.row, nil)
	return p, err
}

// scanRows is the one loop that types a CSV body with no header line: each
// line into the row next returns, cell j by value.CSVCell (so a row is as
// wide as what next returns), then add over that row (nil: none), in order.
// It returns the lines typed.
func scanRows(body []byte, next func() []value.Value, add func([]value.Value) error) (int64, error) {
	sc := csvx.NewScanner(body)
	n := int64(0)
	for ; sc.Scan(); n++ {
		row := next()
		for j := range row {
			row[j] = value.CSVCell(sc.Fields(), j)
		}
		if add != nil {
			if err := add(row); err != nil {
				return n, err
			}
		}
	}
	return n, sc.Err()
}

// checkClaim refuses a response whose body held n rows where its stats
// claim another count.
func checkClaim(res *selectengine.Result, n int64) error {
	if n != res.Stats.RowsReturned {
		return fmt.Errorf("engine: a %d-byte response body is not the %d rows its stats claim", len(res.Body), res.Stats.RowsReturned)
	}
	return nil
}

// SelectRows runs sql on every partition of table and concatenates the
// returned rows into a typed relation.
func (e *Exec) SelectRows(phaseName string, stage int, table, sql string) (*Relation, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	return e.selectMetered(phaseName, stage, table, e.db.request(table, stmt), 0)
}

// selectMetered is SelectRows over req metering, on its step, perRow units
// of the server's row work per returned row: what the operators finishing a
// pushed scan on the server (group-by, top-K, the Bloom build) begin with.
func (e *Exec) selectMetered(name string, stage int, table string, req selectengine.Request, perRow int64) (*Relation, error) {
	st := e.step(name, name, stage, table)
	rel, err := e.selectDecoded(st, table, req, nil)
	if err == nil {
		st.AddServerRows(int64(len(rel.Rows)) * perRow)
	}
	st.end(err)
	return rel, err
}

// selectDecoded runs req on every partition of table, metered on st, and
// decodes each response's body once, inside the fan-out, where LoadTable
// decodes too: to its part, whose rows are cut in partition order into the
// relation once every partition has decoded, or with a fold into the fold's
// group table, and no relation is built (it is nil). Bodies fold in
// partition order, as their concatenation would: partition i's waits for
// partition i-1's fold, and overlaps the selects of the partitions after it.
// A body that is not the rows its stats claim fails either way.
func (e *Exec) selectDecoded(st step, table string, req selectengine.Request, fold *groupFold) (*Relation, error) {
	keys, _ := e.parts(table) // memoized; a failure is selectOnParts's to report
	parts := make([]part, len(keys))
	var folded []chan struct{} // folded[i] closes once partition i has folded
	if fold != nil {
		folded = make([]chan struct{}, len(keys))
		for i := range folded {
			folded[i] = make(chan struct{})
		}
	}
	_, err := e.selectOnParts(st, table, req, func(ctx context.Context, i int, res *selectengine.Result) (err error) {
		if fold != nil && i > 0 {
			select {
			case <-folded[i-1]:
			case <-ctx.Done(): // another partition failed, or the statement was canceled
				return ctx.Err()
			}
		}
		dec := st.sp.Child("decode")
		defer dec.End()
		claimed := res.Stats.RowsReturned
		dec.SetInt("rows", claimed)
		if fold != nil {
			if err = fold.body(res); err == nil {
				close(folded[i])
			}
			return err
		}
		parts[i], err = decodeRows(res.Columns, res.Body, csvx.RowBound(res.Body, len(res.Columns), claimed))
		if err == nil {
			err = checkClaim(res, int64(parts[i].rows))
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	if fold != nil {
		st.sp.SetInt("rows", fold.rows)
		return nil, nil
	}
	out, err := cutRows(parts)
	if err != nil {
		return nil, err
	}
	st.sp.SetInt("rows", int64(len(out.Rows)))
	return out, nil
}

// groupFold is a grouped scan's tail: one aggregation block, bound before the
// scan to the columns its request returns, that each partition's response
// body folds into row by row, in partition order (selectDecoded), on both
// operator sets. No relation is built; the groups collect into out when the
// block finishes.
type groupFold struct {
	x    *expr.RowExec
	cols []string      // the request's output columns, which x is bound to
	row  []value.Value // the body row being folded, reused
	rows int64         // the rows folded so far
	out  *Relation
}

// newGroupFold binds the grouping of keys and items to the columns pushed,
// the scan's statement, returns: never *, whose columns only a response
// would name (pushedScan).
func newGroupFold(pushed *sqlparse.Select, keys []sqlparse.Expr, items []sqlparse.SelectItem) (*groupFold, error) {
	f := &groupFold{cols: make([]string, len(pushed.Items))}
	for i, it := range pushed.Items {
		f.cols[i] = it.Name()
	}
	f.out = &Relation{Cols: itemCols(&Relation{Cols: f.cols}, items)}
	var err error
	f.x, err = expr.NewAggregation(f.cols, nil, keys, sqlparse.ItemExprs(items), f.out.collect())
	f.row = make([]value.Value, len(f.cols))
	return f, err
}

// body folds one response into the block. It fails unless the response
// names the bound columns and its body holds the rows its stats claim; the
// rows before the one where that shows are folded already.
func (f *groupFold) body(res *selectengine.Result) error {
	if !slices.Equal(res.Columns, f.cols) {
		return fmt.Errorf("engine: a response's columns %v are not its request's %v", res.Columns, f.cols)
	}
	n, err := scanRows(res.Body, func() []value.Value { return f.row }, f.x.Add)
	f.rows += n
	if err == nil {
		err = checkClaim(res, n)
	}
	return err
}

// SelectAgg runs an aggregate-only sql on every partition and merges the
// single-row results column-wise, each column by the aggregate of the item
// that produced it (SUM and COUNT merge by addition, MIN/MAX by comparison).
func (e *Exec) SelectAgg(phaseName string, stage int, table, sql string) (Row, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	return e.selectAgg(phaseName, stage, table, e.db.request(table, stmt))
}

// selectAgg is SelectAgg over req. An item that is not a bare aggregate has
// no merge: a bad_request, before any partition is asked.
func (e *Exec) selectAgg(phaseName string, stage int, table string, req selectengine.Request) (_ Row, err error) {
	stmt, err := req.Statement()
	if err != nil {
		return nil, err
	}
	states := make([]*expr.AggState, len(stmt.Items))
	for i, it := range stmt.Items {
		a, ok := it.Expr.(*sqlparse.Aggregate)
		if !ok {
			return nil, s3api.NewError("select", e.db.bucket, table, s3api.KindBadRequest,
				fmt.Errorf("engine: aggregate select item %s is not an aggregate, so its partials do not merge", it.Expr))
		}
		fn := a.Func
		if fn == sqlparse.AggCount { // COUNT partials merge by summation
			fn = sqlparse.AggSum
		}
		states[i] = expr.NewAggState(fn)
	}
	st := e.step(phaseName, phaseName, stage, table)
	defer func() { st.end(err) }()
	results, err := e.selectOnParts(st, table, req, nil)
	if err != nil {
		return nil, err
	}
	for _, res := range results {
		rows, err := res.Records()
		if err != nil {
			return nil, err
		}
		if len(rows) != 1 {
			return nil, fmt.Errorf("engine: aggregate select returned %d rows", len(rows))
		}
		if len(rows[0]) != len(states) {
			return nil, fmt.Errorf("engine: aggregate select returned %d columns, expected %d",
				len(rows[0]), len(states))
		}
		for j, f := range rows[0] {
			if err := states[j].Add(value.FromCSV(f)); err != nil {
				return nil, err
			}
		}
	}
	out := make(Row, len(states))
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
	s := e.db.store(table)
	st := e.step("header "+table, phaseName, stage, table)
	defer func() { st.end(err) }()
	for probe := int64(headerProbe); ; probe *= 2 {
		data, err := s.GetRange(e.ctx, st.Phase, keys[0], 0, probe-1)
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
