package engine

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"unicode/utf8"

	"pushdowndb/internal/arena"
	"pushdowndb/internal/colformat"
	"pushdowndb/internal/csvx"
	"pushdowndb/internal/expr"
	"pushdowndb/internal/obs"
	"pushdowndb/internal/s3api"
	"pushdowndb/internal/selectengine"
	"pushdowndb/internal/sqlparse"
	"pushdowndb/internal/value"
	"pushdowndb/internal/vec"
)

// Load names a table to load, the columns its plan reads (none: every
// column) and what its rows meet as each partition decodes (decoder): Where
// (none: all rows pass), as Filter over the loaded relation would apply it;
// with Build, a probe of Build's hash table on BuildKey = ProbeKey, as
// HashJoin(Build, <the load without Build>, BuildKey, ProbeKey) and then
// Filter by Residual would join and keep them, only a row that joins typing
// its other cells (probe); with Items, a grouping by GroupBy (none: one
// plain aggregation) of the rows it would keep, as GroupBy would group them,
// with no relation of them built (groupFold); with a rank, the K best of the
// rows it would keep, as TopKLocal would rank them. The load answers as those
// operators would: the same rows or groups in the same order, typed alike,
// or the same error.
type Load struct {
	Table   string
	Cols    []string
	Where   sqlparse.Expr
	GroupBy []sqlparse.Expr
	Items   []sqlparse.SelectItem

	Build              *Relation
	BuildKey, ProbeKey string
	Residual           sqlparse.Expr

	rank *rank
}

// decoder is the decode of l's rows through its consumers: its Where, its
// probe of Build with the Residual, its grouping's fold and its rank.
func (l Load) decoder() *decoder {
	d := &decoder{where: l.Where, buildKey: l.BuildKey, probeKey: l.ProbeKey, residual: l.Residual, rank: l.rank}
	if l.Build != nil {
		d.build = func() *Relation { return l.Build }
	}
	if l.Items != nil {
		d.fold = &groupFold{keys: l.GroupBy, items: l.Items}
	}
	return d
}

// LoadTables loads the tables of one stage concurrently (see LoadTable),
// each on its own "load <table>" phase, and returns them in argument
// order — the opening move of the baseline plans.
func (e *Exec) LoadTables(stage int, loads ...Load) ([]*Relation, error) {
	rels := make([]*Relation, len(loads))
	fns := make([]func() error, len(loads))
	for i, l := range loads {
		fns[i] = func() (err error) {
			d := l.decoder()
			if rels[i], err = e.loadMetered("load "+l.Table, stage, l, 0, nil, d); err == nil && d.fold != nil {
				rels[i], err = d.fold.finish()
			}
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
	return e.loadMetered(phaseName, stage, Load{Table: table, Cols: cols}, 0, nil, &decoder{})
}

// loadMetered is LoadTable of l through d, its decoder (Load.decoder), on a
// step of its own, metering there perRow units of the server's row work per
// decoded row: the server-side baselines' pass over every row, which a Where
// does not shorten. Its parts are GET objects (part.open); a non-nil bind
// judges the first one's whole header before the others are fetched. With a
// fold it answers no relation, for the caller to finish d's fold.
func (e *Exec) loadMetered(name string, stage int, l Load, perRow int64, bind func(header []string) error, d *decoder) (*Relation, error) {
	st := e.step(name, name, stage, l.Table)
	d.e, d.st = e, st
	d.serial = bind != nil || d.where != nil || d.fold != nil || d.build != nil
	keys, err := e.parts(l.Table)
	var rel *Relation
	if err == nil {
		s := e.db.store(l.Table)
		rel, err = d.finish(d.run(keys, func(ctx context.Context, i int) error {
			p := &d.parts[i]
			p.sp = st.sp.Child("get " + keys[i])
			data, err := s.Get(ctx, st.Phase, keys[i])
			if err == nil {
				p.sp.SetInt("bytes", int64(len(data)))
				check := bind
				if i > 0 {
					check = nil
				}
				err = p.open(data, l.Cols, check)
			}
			if errors.Is(err, errNoColumn) {
				err = s3api.NewError("get", e.db.bucket, keys[i], s3api.KindBadRequest,
					fmt.Errorf("engine: table %q: %w", l.Table, err))
			}
			return err
		}))
	}
	if err == nil {
		st.AddServerRows(d.decoded * perRow)
	}
	st.end(err)
	return rel, err
}

// decoder is the one decode of a scan's partitions. A partition is a part
// its source opens: a GET object (loadMetered), a select response
// (selectDecoded) or an index fetch's fragments (indexFetch). run fans the
// parts out, decode runs each part's rows through the consumers bound once —
// a Where and a fold's aggregation block, bound to one header, a probe of
// the build side, hashed and bound once, whose joined rows meet a residual
// and the fold, and a rank of the kept rows — and finish answers once, after
// the fan-out.
type decoder struct {
	e  *Exec
	st step // the step the scan is metered on

	// The consumers, and how the parts meet them.
	where              sqlparse.Expr    // the rows kept (a load's)
	fold               *groupFold       // the block the kept, or joined and passed, rows fold into
	build              func() *Relation // the build side the kept rows probe, waited for once: nil if it failed
	buildKey, probeKey string
	residual           sqlparse.Expr // the joined rows kept
	rank               *rank         // the kept rows' K best, the answer (not with fold or build)
	serial             bool          // open parts one at a time until one names a header, which where and fold bind to (a load's)
	lends              bool          // open decodes each part it opens (run)

	parts   []part
	header  []string // what where and fold are bound to: a part naming another decodes no row
	f       *where
	first   int             // the first part with a header, which folds straight into the block
	turns   []chan struct{} // a fold bound before the scan (a pushed scan's): turns[i] closes once part i has folded
	hashed  sync.Once
	j       *probe // nil if the build side failed
	keyed   sync.Once
	keys    *sortKeys // the rank's, bound to keyCols
	keyCols []string

	decoded, kept, joined int64 // the rows decoded, kept by where and joined by the probe (finish)
}

// run fans the parts of keys out: each is opened by open (its span,
// columns and rows: part.open, part.response or part.openRows), then
// decoded (by open itself with lends: a lent response, in its sink). Serial,
// parts open one at a time first until one names a header (those before it
// are zero-byte objects), so a statement the table cannot answer costs one
// GET, and where and the fold (a probe's: probeFor) bind to that header.
func (d *decoder) run(keys []string, open func(ctx context.Context, i int) error) error {
	d.parts = make([]part, len(keys))
	next := 0 // the parts opened before the fan-out, the last of which decodes inside it
	for d.serial && next < len(keys) && (next == 0 || d.header == nil) {
		if next > 0 {
			d.parts[next-1].sp.End()
		}
		if err := open(d.e.ctx, next); err != nil {
			d.parts[next].sp.End()
			return err
		}
		if cols := d.parts[next].cols; len(cols) > 0 {
			d.header = cols
		}
		next++
	}
	if d.where != nil && d.header != nil {
		d.f = newWhere(d.header, d.where)
	}
	if d.serial && d.fold != nil && d.build == nil {
		d.fold.bind(d.header, d.f)
	}
	if d.fold != nil && !d.serial {
		d.turns = make([]chan struct{}, len(keys))
		for i := range d.turns {
			d.turns[i] = make(chan struct{})
		}
	}
	d.first = max(next-1, 0)
	return d.e.forEachPart(keys[d.first:], func(ctx context.Context, i int, _ string) error {
		i += d.first
		if i >= next {
			if err := open(ctx, i); err != nil || d.lends {
				d.parts[i].sp.End()
				return err
			}
		}
		return d.decode(ctx, i)
	})
}

// decode types the rows of part i, opened, through the consumers and ends
// its span. With turns, a part waits for the one before it to fold; a
// response decodes under a "decode" span and fails unless its body held the
// rows its stats claim. A part folds into the fold's block when its turn
// has come, else into a RowExec.Partial of it (finish merges it); with the
// build side failed, or naming another header than the consumers', it keeps
// no row (finish refuses the latter: keptCols). Decoded, a part drops its
// source.
func (d *decoder) decode(ctx context.Context, i int) (err error) {
	p := &d.parts[i]
	if d.turns != nil {
		if i > d.first {
			select {
			case <-d.turns[i-1]:
			case <-ctx.Done(): // another partition failed, or the statement was canceled
				return ctx.Err()
			}
		}
		defer func() {
			if err == nil {
				close(d.turns[i])
			}
		}()
	}
	if p.res != nil {
		p.sp = d.st.sp.Child("decode")
		p.sp.SetInt("rows", p.res.Stats.RowsReturned)
	}
	defer p.sp.End()
	if len(p.cols) > 0 {
		if d.header != nil && !sameCols(p.cols, d.header) {
			return nil
		}
		if p.f = d.f; p.f != nil {
			p.failed = p.f.err
		}
		if d.build != nil {
			if p.j = d.probeFor(p.cols); p.j == nil || !sameCols(p.cols, p.j.cols) {
				return nil
			}
			if p.j.res != nil {
				p.resErr = p.j.res.err
			}
		}
		if d.rank != nil { // never with a probe or a fold
			if p.rk = d.rankFor(p.cols); !sameCols(p.cols, d.keyCols) {
				return nil
			}
			p.top, p.keyVals, p.rankErr = topRows{order: d.rank.order, k: d.rank.k}, make([]value.Value, len(d.rank.order)), p.rk.err
		}
		if g := d.fold; g != nil && g.err == nil {
			p.x, p.need = g.x, g.need
			if i > d.first && d.turns == nil {
				p.x = g.x.Partial()
			}
		}
		if d.turns != nil && i > d.first { // the part before has folded: its scratch row is free
			p.wide, p.scratch = d.parts[i-1].wide, d.parts[i-1].scratch
		}
		if p.scratch == nil && (p.f != nil || p.x != nil || p.j != nil || p.rk != nil) {
			p.wide = make([]value.Value, p.width())
			p.scratch = p.wide[len(p.wide)-len(p.cols):]
		}
	}
	if p.col != nil {
		err = p.fromColumnar()
	} else if err = p.decodeCSV(); err == nil && p.res != nil && p.decoded != p.res.Stats.RowsReturned {
		err = fmt.Errorf("engine: a %d-byte response body is not the %d rows its stats claim", len(p.res.Body), p.res.Stats.RowsReturned)
	}
	p.data, p.sc, p.col, p.res = nil, csvx.Scanner{}, nil, nil
	return err
}

// probeFor is the probe of the build side, waited for and hashed once,
// bound once to header, the first a part names, after the predicate types
// the cells it reads, the residual and the fold then to the joined header;
// nil if the build side failed. A part naming another header probes
// nothing: finish refuses it (keptCols).
func (d *decoder) probeFor(header []string) *probe {
	d.hashed.Do(func() {
		build := d.build()
		if build == nil {
			return
		}
		j := &probe{build: build, t: &hashTable{}, cols: header, key: sqlparse.NewNames(header).Index(d.probeKey), rest: make([]int, 0, len(header))}
		if bk := sqlparse.NewNames(build.Cols).Index(d.buildKey); bk >= 0 && j.key >= 0 {
			j.t = newHashTable(build.Rows, bk)
		}
		j.key = max(j.key, 0)
		for c := range header {
			if c != j.key && (d.f == nil || !d.f.reads[c]) {
				j.rest = append(j.rest, c)
			}
		}
		joined := append(slices.Clip(build.Cols), header...)
		if d.residual != nil {
			j.res = newWhere(joined, d.residual)
		}
		if d.fold != nil {
			d.fold.bind(joined, nil)
		}
		d.j = j
	})
	return d.j
}

// rankFor is the rank's keys bound once to header, the first a part names,
// after the predicate types the cells it reads. A part naming another
// header ranks nothing: finish refuses it (keptCols).
func (d *decoder) rankFor(header []string) *sortKeys {
	d.keyed.Do(func() { d.keys, d.keyCols = newSortKeys(header, d.rank.order), header })
	return d.keys
}

// finish is the scan's one answer, given its fan-out's error: the relation
// of the parts' kept rows, cut in partition order (cutRows), or with a rank
// their K best (ranked) — or with a fold none, every part's block merged
// into the fold's in partition order, for the caller to finish — with the
// rows decoded, kept and joined counted in d and on the step's span. Errors
// come in the order the materialized path would report them: the fan-out's
// (a part's source), then a failed build side (errNoBuild), then parts
// naming different headers (keptCols), then the predicate's (its binding,
// then the first part's first failing row), then the join keys' (joinKeys),
// then the residual's, the rank's keys' and the grouping's the same way.
func (d *decoder) finish(err error) (*Relation, error) {
	if err == nil && d.build != nil && d.probeFor(d.header) == nil {
		err = errNoBuild
	}
	var cols []string
	if err == nil {
		cols, err = keptCols(d.parts, d.header)
	}
	for _, p := range d.parts {
		if err == nil {
			err = p.failed
		}
		d.decoded += p.decoded
		d.kept += p.kept
		d.joined += p.joined
	}
	if err == nil && d.j != nil {
		_, _, err = joinKeys(d.j.build.Cols, cols, d.buildKey, d.probeKey)
		cols = append(slices.Clip(d.j.build.Cols), cols...)
		if err == nil && d.j.res != nil {
			err = d.j.res.err
		}
	}
	for _, p := range d.parts {
		if err == nil {
			err = cmp.Or(p.resErr, p.rankErr) // a probe's or a rank's
		}
	}
	if g := d.fold; g != nil {
		// The fold's merge, once the grouping has bound and no part's rows
		// failed it (the first part's first failing row, as over the
		// concatenation): the parts' own blocks, in partition order.
		if err == nil {
			err = g.err
		}
		for _, p := range d.parts {
			if err == nil {
				err = p.aggErr
			}
			g.rows += int64(p.rows)
		}
		for _, p := range d.parts {
			if err == nil && p.x != nil && p.x != g.x {
				err = g.x.Merge(p.x)
			}
		}
	}
	if err != nil {
		return nil, err
	}
	d.st.sp.SetInt("rows", d.decoded)
	d.st.sp.SetInt("kept", d.kept)
	d.st.sp.SetInt("cols", int64(len(cols)))
	if d.j != nil {
		d.st.sp.SetInt("joined", d.joined)
	}
	if d.fold != nil {
		return nil, nil
	}
	if d.rank != nil {
		return d.ranked(cols), nil
	}
	return cutRows(d.parts, cols), nil
}

// ranked is the relation of the K best rows the parts hold, best first, as
// over their concatenation: the parts' sorted rows merged, a tie going to
// the earlier part. The rank's rows are the rows the scan kept.
func (d *decoder) ranked(cols []string) *Relation {
	n := 0
	for i := range d.parts {
		n += len(d.parts[i].top.sorted())
	}
	out := &Relation{Cols: cols, Rows: make([]Row, 0, min(n, d.rank.k))}
	for len(out.Rows) < cap(out.Rows) {
		var best *topRows
		for i := range d.parts {
			t := &d.parts[i].top
			if len(t.held) > 0 && (best == nil || t.compare(t.held[0].cells, math.MaxInt64, best.held[0]) < 0) {
				best = t
			}
		}
		out.Rows = append(out.Rows, best.held[0].cells[len(d.rank.order):])
		best.held = best.held[1:]
	}
	d.rank.rows = d.kept
	return out
}

// binding is expressions bound to a header, only read once bound: the
// positions they read, as a list and by position, and the binding's error.
type binding struct {
	ev    expr.Evaluator
	cols  []int  // the positions the expressions read
	reads []bool // by position: an expression reads it
	err   error
}

// bind binds exprs to header.
func bind(header []string, exprs ...sqlparse.Expr) binding {
	b := binding{reads: make([]bool, len(header))}
	if b.err = b.ev.Bind(expr.Index(header), exprs...); b.err == nil {
		b.cols = b.ev.Cols()
		for _, j := range b.cols {
			b.reads[j] = true
		}
	}
	return b
}

// where is a load's predicate, bound once to the first kept header (run),
// or a join's residual, bound to the joined header (probeFor), and only read
// by every part's decoder: a row types its cells at cols into the part's
// scratch row, the predicate runs there (expr's rules, as Filter applies
// them), and only a row it passes types its other kept cells. err is the
// binding's, every decoded part's failure then.
type where struct {
	pred sqlparse.Expr
	binding
}

// newWhere binds pred to header.
func newWhere(header []string, pred sqlparse.Expr) *where {
	return &where{pred: pred, binding: bind(header, pred)}
}

// sortKeys is an ORDER BY's keys bound to a header: TopKLocal's, or a
// rank's, bound once to the first header a part names (rankFor) and only
// read by every part's decoder.
type sortKeys struct {
	order []sqlparse.OrderItem
	binding
}

// newSortKeys binds order's keys to header.
func newSortKeys(header []string, order []sqlparse.OrderItem) *sortKeys {
	exprs := make([]sqlparse.Expr, len(order))
	for j, o := range order {
		exprs[j] = o.Expr
	}
	return &sortKeys{order: order, binding: bind(header, exprs...)}
}

// eval writes row's keys into keys, or fails with the first failing key's
// error.
func (s *sortKeys) eval(row, keys []value.Value) (err error) {
	for j, o := range s.order {
		if keys[j], err = s.ev.Eval(o.Expr, row); err != nil {
			return err
		}
	}
	return nil
}

// rank is an ungrouped ORDER BY … LIMIT K tail (newRank): its keys over the
// scan's columns and K. A scan's decoder ranks its kept rows by it as they
// decode, each part holding its K best (topRows), and answers only the K
// best of all (decoder.ranked): SortLocal and then LimitLocal's rows, which
// the tail only projects. rows is the rows the scan kept, what the tail
// would have sorted.
type rank struct {
	order []sqlparse.OrderItem
	k     int
	rows  int64
}

// newRank is sel's rank, or nil if sel's tail ranks no rows as they decode:
// a grouped tail, or one with no ORDER BY or no LIMIT.
func newRank(sel *sqlparse.Select) *rank {
	if grouped(sel) || len(sel.OrderBy) == 0 || sel.Limit < 0 {
		return nil
	}
	return &rank{order: orderByOverInput(sel), k: int(sel.Limit)}
}

// passes reports whether row passes f, keeping in *failed the error of a
// row it fails on.
func (f *where) passes(row []value.Value, failed *error) bool {
	ok, err := f.ev.EvalBool(f.pred, row)
	*failed = err
	return ok && err == nil
}

// probe is a hash join's probe side bound to a header (decoder.probeFor):
// the build side's hash table (hashTable), shared by every decoder, which
// only reads it, the probe key's position in the header, the positions
// neither the key nor the Where reads, which a row types only once it has
// joined, and the residual the joined rows meet. With a key missing the
// table is empty, no row joins, and the scan fails with the keys' error once
// its own are reported.
type probe struct {
	build *Relation
	t     *hashTable
	cols  []string // the header
	key   int
	rest  []int
	res   *where // nil: every joined row passes
}

// part is one partition while its scan decodes it: what its source opened,
// and its decoded rows, row-major: rows rows of width() cells in one array
// (cells) or, when a predicate filters them or a probe joins them, in
// blocks (full, then cells) — or, when they fold, none, rows counting them.
// The rows of every part are cut once after the fan-out (cutRows), so the
// decode never hands out a window of an array it may still grow.
type part struct {
	cols     []string
	cells    []value.Value
	full     [][]value.Value // the filled blocks before cells
	block    int             // a blocked part's largest block in cells; 0 for one array
	rows     int
	decoded  int64 // the rows decoded, kept or not
	kept     int64 // the rows the predicate kept (all of them with none)
	joined   int64 // the joined rows the probe made, before the residual
	failed   error // the predicate's first error over the part's rows
	resErr   error // the residual's first error over the part's joined rows
	rankErr  error // the rank's keys' first error over the part's kept rows
	scanned  int64 // a response's Stats.BytesScanned and Columnar, read once the part has decoded
	columnar bool

	// What its source opened: the span decode ends, the kept columns'
	// header positions, and the rows — a CSV scanner over data, past any
	// header line, or a colformat object's reader. A select response's
	// result holds the count its stats claim; lent marks a GET's CSV object
	// or a lent body, whose kept text a row copies (own).
	sp   *obs.Span
	keep []int
	data []byte
	sc   csvx.Scanner
	col  *colformat.Reader
	res  *selectengine.Result
	lent bool

	// What decode runs each row through (take): the predicate, the block
	// the rows fold into and the cells it reads that f does not, the probe
	// and its matches, the rank's keys, the part's best rows and a row's key
	// values, the row they read (scratch, the tail of wide, whose head a
	// joined row's build cells fill), the block's first error, and the chunks
	// lent text is copied into (own), each new one of room bytes.
	f       *where
	x       *expr.RowExec
	need    []int
	j       *probe
	match   []int
	rk      *sortKeys
	top     topRows
	keyVals []value.Value
	scratch []value.Value
	wide    []value.Value
	aggErr  error
	chunks  arena.Text
	room    int
}

// open reads the header of data, a partition's object, has check (nil:
// none) judge it whole, and prunes it to cols (prune): p.cols stays nil for
// a zero-byte object, whose header check sees as nil.
func (p *part) open(data []byte, cols []string, check func(header []string) error) (err error) {
	p.data = data
	var header []string
	if colformat.IsColumnar(data) {
		// Columnar partitions decode straight into typed vectors; the CSV
		// decoder would mis-parse the binary layout.
		if p.col, err = colformat.Open(data); err != nil {
			return err
		}
		header = p.col.Schema().Names()
	} else if p.sc, p.lent = *csvx.NewScanner(data), true; p.sc.Scan() {
		header = csvx.CloneRow(p.sc.Fields())
	} else if err = p.sc.Err(); err != nil {
		return err
	}
	if check != nil {
		if err = check(header); err != nil {
			return err
		}
	}
	if header != nil {
		p.cols, p.keep, err = prune(header, cols)
	}
	return err
}

// openRows opens body, CSV rows with no header line, under cols: an index
// fetch's fragments, or a select response's body (response). Text cells
// view body, which its owner never modifies.
func (p *part) openRows(cols []string, body []byte) {
	p.cols, p.data, p.sc = cols, body, *csvx.NewScanner(body)
}

// response opens res, a select response, as a part.
func (p *part) response(res *selectengine.Result) {
	p.openRows(res.Columns, res.Body)
	p.res, p.lent, p.scanned, p.columnar = res, res.Lent(), res.Stats.BytesScanned, res.Columnar
}

// take runs one decoded row through the load, cell(c) typing its kept cell
// c. With a predicate, the cells it reads type into p.scratch first, and a
// row it fails goes no further. With a probe, the key types there too, and
// only a row with matches types the rest; each match's joined row, the
// match's build row and then the row, meets the residual, and one it passes
// folds into the block or, with none, owns its text and is kept. Otherwise,
// with a block, the cells the block reads type into p.scratch too and the
// row folds into it; with a rank, the row is ranked (rankRow); with neither
// the row is kept, appended to p and filled.
func (p *part) take(cell func(c int) value.Value) {
	p.decoded++
	f := p.f
	if f != nil {
		if p.failed != nil {
			return
		}
		for _, c := range f.cols {
			p.scratch[c] = cell(c)
		}
		if !f.passes(p.scratch, &p.failed) {
			return // after the first row it fails on, p keeps no row
		}
	}
	p.kept++
	if j := p.j; j != nil {
		if f == nil || !f.reads[j.key] {
			p.scratch[j.key] = cell(j.key)
		}
		if p.match = j.t.matches(p.scratch[j.key], p.match[:0]); len(p.match) == 0 {
			return
		}
		for _, c := range j.rest {
			p.scratch[c] = cell(c)
		}
		if p.x == nil {
			p.own(p.scratch)
		}
		p.joined += int64(len(p.match))
		for _, b := range p.match {
			copy(p.wide, j.build.Rows[b])
			switch {
			case p.resErr != nil || j.res != nil && !j.res.passes(p.wide, &p.resErr): // after the first joined row it fails on, none
			case p.x != nil:
				p.foldRow(p.wide)
			default:
				copy(p.row(), p.wide)
			}
		}
		return
	}
	if p.x != nil {
		for _, c := range p.need {
			p.scratch[c] = cell(c)
		}
		p.foldRow(p.scratch)
		return
	}
	if p.rk != nil {
		p.rankRow(cell)
		return
	}
	row := p.row()
	for c := range row {
		if f != nil && f.reads[c] {
			row[c] = p.scratch[c]
		} else {
			row[c] = cell(c)
		}
	}
	p.own(row)
}

// rankRow types a kept row's key cells into p.scratch and evaluates its keys
// there; only a row among the part's K best so far types its other cells,
// into the slot it takes from the worst, and owns its text. After the first
// row whose keys fail, p ranks no row.
func (p *part) rankRow(cell func(c int) value.Value) {
	if p.rankErr != nil {
		return
	}
	for _, c := range p.rk.cols {
		if p.f == nil || !p.f.reads[c] {
			p.scratch[c] = cell(c)
		}
	}
	if p.rankErr = p.rk.eval(p.scratch, p.keyVals); p.rankErr != nil {
		return
	}
	slot := p.top.add(p.keyVals, p.kept-1, len(p.keyVals)+len(p.cols))
	if slot == nil {
		return
	}
	row := slot[len(p.keyVals):]
	for c := range row {
		if p.rk.reads[c] || p.f != nil && p.f.reads[c] {
			row[c] = p.scratch[c]
		} else {
			row[c] = cell(c)
		}
	}
	p.own(slot)
}

// foldRow adds row to p's block, which adds no row after its first error.
func (p *part) foldRow(row []value.Value) {
	p.rows++
	if p.aggErr == nil {
		p.aggErr = p.x.Add(row)
	}
}

// own copies row's text cells into p's chunks when they view lent text: a
// Relation outlives the GET and the sink it came from. A response's first
// chunk is sized for the rows its stats claim, each with the text of the
// first row that owns some, up to its body's length. A colformat chunk's
// text is its own already, and an owned body or an index fetch's fragments
// hold only the rows they answer.
func (p *part) own(row []value.Value) {
	for j, v := range row {
		if p.lent && v.Kind() == value.KindString {
			if p.room == 0 && p.res != nil {
				text := 0
				for _, c := range row {
					if c.Kind() == value.KindString {
						text += len(c.AsString())
					}
				}
				p.room = int(min(int64(text)*p.res.Stats.RowsReturned, int64(len(p.res.Body))))
			}
			row[j] = value.Str(p.chunks.Own(v.AsString(), p.room))
		}
	}
}

// firstBlock is a filtered part's first block, in rows, and firstJoined a
// probing part's, whose rows mostly find no match: each block after it is
// half as large again, to their cap (part.blocks).
const firstBlock, firstJoined = 256, 64

// blocks makes p's kept rows grow in blocks that start at firstBlock rows
// and grow by half up to an eighth of the rows in bound, the cells the
// part would hold had every row passed unjoined, rounded up to whole rows:
// a filtered part allocates at most half again what it keeps, past its
// first block, and never copies a block, at one allocation per block.
func (p *part) blocks(bound int) {
	p.block = max((bound/max(len(p.cols), 1)+7)/8, 1) * p.width()
}

// width is the cells of one of p's rows: its kept columns, after the build
// side's when it probes.
func (p *part) width() int {
	if p.j != nil {
		return len(p.j.build.Cols) + len(p.cols)
	}
	return len(p.cols)
}

// row appends a zeroed row to p and returns it, for the decoder to fill. In
// one array it may move p.cells, which is why no row is cut before the
// decode ends; a full block is left as it is and a fresh one started.
func (p *part) row() []value.Value {
	w := p.width()
	if p.block > 0 && cap(p.cells)-len(p.cells) < w {
		size := firstBlock * w
		if p.j != nil {
			size = firstJoined * w
		}
		if p.cells != nil {
			p.full = append(p.full, p.cells)
			size = cap(p.cells) / w * 3 / 2 * w
		}
		p.cells = make([]value.Value, 0, min(size, p.block))
	}
	n := len(p.cells)
	p.cells = slices.Grow(p.cells, w)[:n+w]
	p.rows++
	return p.cells[n:]
}

// keptCols is the columns of parts' rows: header, or with none the first
// part's with columns or rows (a zero-byte partition has neither). Every
// other such part must name the same columns in the same order, or its rows
// would join the relation by position.
func keptCols(parts []part, header []string) ([]string, error) {
	cols := header
	for _, p := range parts {
		if len(p.cols) == 0 && p.rows == 0 {
			continue
		}
		if cols == nil {
			cols = p.cols
		} else if !sameCols(p.cols, cols) {
			return nil, fmt.Errorf("engine: partitions differ in columns: %v vs %v", cols, p.cols)
		}
	}
	return cols, nil
}

// sameCols reports whether a and b name the same columns in the same order.
func sameCols(a, b []string) bool { return slices.EqualFunc(a, b, sqlparse.SameName) }

// cutRows is the relation of parts' rows, each as wide as cols, in
// partition order: one []Row for all of them, row k of an array the window
// cells[k*w:(k+1)*w:(k+1)*w] — an append to a row reallocates it, never
// writing into the next; a surviving row keeps its array reachable. The
// parts must be as wide as each other (keptCols).
func cutRows(parts []part, cols []string) *Relation {
	out := &Relation{Cols: cols}
	n := 0
	for _, p := range parts {
		n += p.rows
	}
	out.Rows = make([]Row, 0, n)
	w := len(cols)
	cut := func(cells []value.Value, rows int) {
		for k := range rows {
			out.Rows = append(out.Rows, cells[k*w:(k+1)*w:(k+1)*w])
		}
	}
	for _, p := range parts {
		rows := p.rows
		for _, cells := range p.full {
			cut(cells, len(cells)/w)
			rows -= len(cells) / w
		}
		cut(p.cells, rows)
	}
	return out
}

// errNoBuild fails a probing scan whose build side failed to load, which
// is the error its caller reports (buildThenProbe).
var errNoBuild = errors.New("engine: a probing load's build side failed")

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

// fromColumnar decodes an opened colformat object (the paper's Fig. 11
// columnar layout) one row group at a time, reading only the kept columns'
// chunks, each into its one vector, and runs the group's rows through the
// load (take) before the next group overwrites the vectors. Rows come from
// decoded chunks, never from a count a footer claims.
func (p *part) fromColumnar() error {
	vecs := make([]*vec.Vector, len(p.cols))
	var i int // the row being taken
	cell := func(c int) value.Value { return vecs[c].Value(i) }
	for g := 0; g < p.col.NumRowGroups(); g++ {
		for c := range vecs {
			var err error
			if vecs[c], _, err = p.col.ReadColumn(g, at(p.keep, c), vecs[c]); err != nil {
				return err
			}
		}
		n := 0 // the decoded chunks' length, as vec.NewBatch reads it
		if len(vecs) > 0 {
			n = vecs[0].Len()
		}
		switch {
		case p.x != nil || p.rk != nil:
		case p.f == nil && p.j == nil:
			p.cells = slices.Grow(p.cells, n*len(vecs))
		case p.block == 0:
			p.blocks(n * p.col.NumRowGroups() * len(vecs))
		}
		for i = 0; i < n && p.failed == nil; i++ {
			p.take(cell)
		}
	}
	return nil
}

// decodeCSV types a CSV part's cells straight off its scanner — a GET's
// object, a response's body or an index fetch's fragments alike — in one
// pass, only the cells the consumers need (take), each by value.CSVCell, so
// every row is as wide as the kept header. A dropped, unjoined or folded
// row's cells live only in the scratch row. Unfiltered cells go into one
// array sized from the line count (at most data's length: a cell takes a
// byte), filtered or joined ones into blocks (part.blocks), folded ones
// nowhere. A part with no rows' source (an index partition no range
// reached) has no rows.
func (p *part) decodeCSV() error {
	if p.x == nil {
		lines := bytes.Count(p.data, []byte{'\n'})
		bound := min(lines*len(p.cols), len(p.data))
		switch {
		case p.rk != nil:
			p.top.expect(lines+1, len(p.keyVals)+len(p.cols))
		case p.f != nil || p.j != nil:
			p.blocks(bound)
		default:
			p.cells = make([]value.Value, 0, bound)
		}
	}
	var fields []string
	cell := func(c int) value.Value { return value.CSVCell(fields, at(p.keep, c)) }
	for p.sc.Scan() {
		fields = p.sc.Fields()
		p.take(cell)
	}
	return p.sc.Err()
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
	d := &decoder{}
	rel, err := e.selectDecoded(st, table, req, d)
	if err == nil {
		st.AddServerRows(d.decoded * perRow)
	}
	st.end(err)
	return rel, err
}

// selectDecoded runs req on every partition of table, metered on st, each
// response a part decoded through d in the sink it is lent to, inside the
// fan-out: the relation of the rows in partition order, or with d's fold
// none. A fold is bound before the scan to the columns the request returns
// (newGroupFold), and the responses fold straight into its block in
// partition order, as their concatenation would: response i waits for
// response i-1's fold, and overlaps the selects after it. With d's build
// side, the relation is HashJoin(build, <the relation without it>,
// buildKey, probeKey)'s filtered by d's residual, or its error, and a
// fold is bound to the joined header once the build side is in (probeFor).
func (e *Exec) selectDecoded(st step, table string, req selectengine.Request, d *decoder) (*Relation, error) {
	keys, err := e.parts(table)
	if err != nil {
		return nil, err
	}
	d.e, d.st, d.lends = e, st, true
	if d.fold != nil && d.build == nil {
		d.header = d.fold.cols
	}
	return d.finish(d.run(keys, func(ctx context.Context, i int) error {
		return e.doSelect(ctx, st, table, keys[i], req, func(res *selectengine.Result) error {
			d.parts[i].response(res)
			return d.decode(ctx, i)
		})
	}))
}

// selectParts is selectDecoded's rows cut by partition: rows[i] are
// partition i's response's, windows of the one relation, typed and owned.
func (e *Exec) selectParts(st step, table string, req selectengine.Request, d *decoder) ([][]Row, error) {
	rel, err := e.selectDecoded(st, table, req, d)
	if err != nil {
		return nil, err
	}
	rows := make([][]Row, len(d.parts))
	for i, p := range d.parts {
		rows[i], rel.Rows = rel.Rows[:p.rows:p.rows], rel.Rows[p.rows:]
	}
	return rows, nil
}

// decodeResponse decodes res, a scan's one select response, through d,
// reusing d's parts: the sample's (sampleSelect).
func decodeResponse(ctx context.Context, d *decoder, res *selectengine.Result) (*Relation, error) {
	d.parts = append(d.parts[:0], part{})
	d.parts[0].response(res)
	return d.finish(d.decode(ctx, 0))
}

// groupFold is a grouped tail that sees no relation: one aggregation block,
// bound to the columns its input rows are laid out as, that rows fold into
// as they decode (decoder) — a pushed scan's responses straight into it in
// partition order, a load's first partition with a header straight into it
// and each after it into a block of its own (RowExec.Partial), merged in
// partition order once every partition has decoded, since a load's decodes
// run at once. A join's fold takes the joined rows its residual passes,
// bound to their header once the build side is in (probeFor). The groups
// collect into out when the block finishes.
type groupFold struct {
	keys  []sqlparse.Expr
	items []sqlparse.SelectItem
	x     *expr.RowExec
	err   error    // x's binding's
	cols  []string // the columns x is bound to
	need  []int    // the positions x reads, a load's Where's left out
	rows  int64    // the rows folded
	out   *Relation
}

// newGroupFold binds the grouping of keys and items to the columns pushed,
// the scan's statement, returns: never *, whose columns only a response
// would name (pushedScan).
func newGroupFold(pushed *sqlparse.Select, keys []sqlparse.Expr, items []sqlparse.SelectItem) (*groupFold, error) {
	f := &groupFold{keys: keys, items: items}
	f.bind(itemCols(&Relation{}, pushed.Items), nil)
	return f, f.err
}

// bind binds the block to rows laid out as cols (nil: none, every column
// past a row's end), after w (nil: none) types the cells it reads, its
// output rows collecting into out.
func (f *groupFold) bind(cols []string, w *where) {
	f.cols = cols
	f.out = &Relation{Cols: itemCols(&Relation{Cols: cols}, f.items)}
	if f.x, f.err = expr.NewAggregation(cols, nil, f.keys, sqlparse.ItemExprs(f.items), f.out.collect()); f.err == nil && w != nil {
		f.need = slices.DeleteFunc(slices.Clone(f.x.Cols()), func(j int) bool { return w.reads[j] })
	} else if f.err == nil {
		f.need = f.x.Cols()
	}
}

// finish emits the block's groups into f's output.
func (f *groupFold) finish() (*Relation, error) { return f.out, f.x.Finish() }

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

// selectAgg is SelectAgg over req, one row a partition. An item that is not
// a bare aggregate has no merge: a bad_request, before any partition is asked.
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
	parts, err := e.selectParts(st, table, req, &decoder{})
	if err != nil {
		return nil, err
	}
	for _, rows := range parts {
		if len(rows) != 1 {
			return nil, fmt.Errorf("engine: aggregate select returned %d rows", len(rows))
		}
		if len(rows[0]) != len(states) {
			return nil, fmt.Errorf("engine: aggregate select returned %d columns, expected %d", len(rows[0]), len(states))
		}
		for j, v := range rows[0] {
			if err := states[j].Add(v); err != nil {
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
