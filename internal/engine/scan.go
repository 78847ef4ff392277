package engine

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
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

// Load names a table to load, the columns its plan reads and the rows it
// keeps: no Cols loads every column, no Where every row. Where is evaluated
// as each partition decodes (loadTable), and the load answers as
// Operators.Filter over the whole loaded relation would: the same rows, in
// the same order, or the same error. With Items, the kept rows are grouped
// by GroupBy (none: one plain aggregation) as they decode, and the load
// answers as Operators.GroupBy over them would; no relation of the rows is
// built (groupFold). With Build, the kept rows probe Build's hash table on
// BuildKey = ProbeKey as they decode, and the load answers as
// Operators.HashJoin(Build, <the load without Build>, BuildKey, ProbeKey)
// would: Build's columns, then the load's, the same rows in the same order,
// or the same error; only a row that joins types its other cells (probe).
// A load does not both probe and group.
type Load struct {
	Table   string
	Cols    []string
	Where   sqlparse.Expr
	GroupBy []sqlparse.Expr
	Items   []sqlparse.SelectItem

	Build              *Relation
	BuildKey, ProbeKey string

	// await, when set, is the build side a probing load waits for before its
	// rows decode, but not its GETs: nil if it failed, whose error is the
	// caller's to report (baselineJoin).
	await func() *Relation
}

// LoadTables loads the tables of one stage concurrently (see LoadTable),
// each on its own "load <table>" phase, and returns them in argument
// order — the opening move of the baseline plans.
func (e *Exec) LoadTables(stage int, loads ...Load) ([]*Relation, error) {
	return e.loadTables(stage, 0, loads...)
}

// loadTables is LoadTables metering, on each load's step, perRow units of
// the server's row work per decoded row.
func (e *Exec) loadTables(stage int, perRow int64, loads ...Load) ([]*Relation, error) {
	rels := make([]*Relation, len(loads))
	fns := make([]func() error, len(loads))
	for i, l := range loads {
		fns[i] = func() error {
			rel, fold, _, err := e.loadMetered("load "+l.Table, stage, l, perRow, nil)
			if err == nil && fold != nil {
				rel, err = fold.finish()
			}
			rels[i] = rel
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
	rel, _, _, err := e.loadMetered(phaseName, stage, Load{Table: table, Cols: cols}, 0, nil)
	return rel, err
}

// loadMetered is LoadTable on a step of its own, metering there perRow units
// of the server's row work per decoded row: the server-side baselines' pass
// over every row, which a Where does not shorten. A load with Items answers
// with no relation but the fold its rows went into, every partition's block
// merged into its block and left for the caller to finish. It also answers
// the rows its Where kept. A non-nil bind is loadTable's.
func (e *Exec) loadMetered(name string, stage int, l Load, perRow int64, bind func(header []string) error) (*Relation, *groupFold, int64, error) {
	st := e.step(name, name, stage, l.Table)
	var fold *groupFold
	if l.Items != nil {
		fold = &groupFold{keys: l.GroupBy, items: l.Items}
	}
	rel, decoded, kept, err := e.loadTable(st, l, fold, bind)
	if err == nil {
		st.AddServerRows(decoded * perRow)
	}
	st.end(err)
	return rel, fold, kept, err
}

// loadTable is LoadTable metered on st: the relation of the rows l keeps
// (joined to l.Build when it probes), or with a fold none, the rows decoded
// and the rows l.Where kept. A bind, a Where, a fold or a probe needs a
// header before any row decodes, so partitions are fetched and their
// headers read one at a time until bind has checked the first partition's
// whole header and l.Where, the fold and the probe are bound to the first
// kept header there is (only a zero-byte object has none); the rest are
// fetched only then, so a statement the table cannot answer costs one GET.
// Every partition's rows decode inside the fan-out, against the one
// binding, and a fold's go into a block of the partition's own
// (RowExec.Partial), merged in partition order after it. Errors stop no
// load but its own: those come first, then partitions of different widths
// (keptCols), then the predicate's (its binding, then the first
// partition's first failing row), then the grouping's the same way, then
// the join keys' (joinKeys), as they would before a filter, a group-by or a
// hash join over the loaded relation ran.
func (e *Exec) loadTable(st step, l Load, fold *groupFold, bind func(header []string) error) (*Relation, int64, int64, error) {
	keys, err := e.parts(l.Table)
	if err == nil && fold != nil && l.Build != nil {
		err = errors.New("engine: a load does not both probe and group")
	}
	if err != nil {
		return nil, 0, 0, err
	}
	if l.Build != nil {
		l.await = func() *Relation { return l.Build }
	}
	s := e.db.store(l.Table)
	parts := make([]part, len(keys))
	workers := e.partWorkers(len(keys))
	open := func(ctx context.Context, i int) error {
		p := &parts[i]
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
	}

	var header []string // the first kept header, which Where, the fold and the probe bind to
	next := 0           // the partitions opened before the fan-out, the last of which decodes inside it
	for next < len(keys) && (bind != nil && next == 0 || (l.Where != nil || fold != nil || l.await != nil) && header == nil) {
		if next > 0 { // a zero-byte partition, with no rows to keep
			if err := parts[next-1].decode(nil, nil, nil, workers); err != nil {
				return nil, 0, 0, err
			}
		}
		if err := open(e.ctx, next); err != nil {
			parts[next].sp.End()
			return nil, 0, 0, err
		}
		if len(parts[next].cols) > 0 {
			header = parts[next].cols
		}
		next++
	}
	var f *where
	if l.Where != nil && header != nil {
		f = bindWhere(l.Where, header)
	}
	if fold != nil {
		fold.bindLoad(header, f)
	}
	var j *probe
	var bound sync.Once
	first := max(next-1, 0)
	err = e.forEachPart(keys[first:], func(ctx context.Context, i int, _ string) error {
		i += first
		if i >= next {
			if err := open(ctx, i); err != nil {
				parts[i].sp.End()
				return err
			}
		}
		if l.await != nil {
			bound.Do(func() {
				if build := l.await(); build != nil {
					j = hashProbe(build, &l, Operators{Workers: e.workers()}).bind(header, f)
				}
			})
			if j == nil { // no build side to probe: the partition's rows are not the load's answer
				parts[i].sp.End()
				return nil
			}
		}
		return parts[i].decode(f, fold, j, workers)
	})
	if err == nil && l.await != nil && j == nil {
		return nil, 0, 0, errNoBuild
	}
	var cols []string
	if err == nil {
		cols, err = keptCols(parts)
	}
	decoded, kept := int64(0), int64(0)
	for _, p := range parts {
		if err == nil {
			err = p.failed
		}
		decoded += p.decoded
		kept += p.kept
	}
	if err == nil && fold != nil {
		err = fold.merge(parts)
	}
	if err == nil && j != nil {
		_, _, err = joinKeys(j.build.Cols, cols, l.BuildKey, l.ProbeKey)
		cols = append(slices.Clip(j.build.Cols), cols...)
	}
	if err != nil {
		return nil, 0, 0, err
	}
	st.sp.SetInt("rows", decoded)
	st.sp.SetInt("kept", kept)
	if fold != nil {
		st.sp.SetInt("cols", int64(len(fold.cols)))
		return nil, decoded, kept, nil
	}
	out := cutRows(parts, cols)
	st.sp.SetInt("cols", int64(len(out.Cols)))
	if j != nil {
		st.sp.SetInt("joined", int64(len(out.Rows)))
	}
	return out, decoded, kept, nil
}

// where is a load's predicate, bound once to the first partition's kept
// header and shared by every partition's decoder, which only reads it. A
// decoder types a row's cells at cols into a scratch row of its own,
// evaluates the predicate there (expr's rules, as Operators.Filter applies
// them), and types the row's other kept cells only if it passes. err is the
// binding's: no row passes then, and it is every decoded partition's
// failure.
type where struct {
	pred  sqlparse.Expr
	ev    expr.Evaluator
	cols  []int  // the kept positions pred reads
	reads []bool // by kept position: pred reads it
	err   error
}

// bindWhere binds pred to a partition's kept header.
func bindWhere(pred sqlparse.Expr, header []string) *where {
	f := &where{pred: pred, reads: make([]bool, len(header))}
	if f.err = f.ev.Bind(expr.Index(header), pred); f.err == nil {
		f.cols = f.ev.Cols()
		for _, j := range f.cols {
			f.reads[j] = true
		}
	}
	return f
}

// over is f for the decode of part p, nil for none: a part as wide as the
// header f was bound to starts with f's binding error as its failure; a part
// of another width keeps its rows, for the load to refuse (keptCols).
func (f *where) over(p *part) *where {
	if f == nil || len(f.reads) != len(p.cols) {
		return nil
	}
	p.failed = f.err
	return f
}

// pass reports whether row, its cells at f.cols typed, passes the predicate.
// The first row it fails on is p's failure, after which p keeps no row.
func (f *where) pass(p *part, row []value.Value) bool {
	ok, err := f.ev.EvalBool(f.pred, row)
	if err != nil {
		p.failed = err
	}
	return ok && err == nil
}

// probe is a hash join's probe side bound to a header: the build side's
// hash table (hashTable), shared by every decoder, which only reads it, the
// probe key's position in the header, and the positions neither the key
// nor the Where reads, which a row types only once it has joined. With a
// key missing the table is empty, no row joins, and the load or scan fails
// with the keys' error once its own are reported.
type probe struct {
	build    *Relation
	t        *hashTable
	probeKey string
	cols     []string // the header
	key      int
	rest     []int
}

// hashProbe hashes build on l.BuildKey for rows probing it on l.ProbeKey,
// once bound to their header (bind).
func hashProbe(build *Relation, l *Load, o Operators) *probe {
	j := &probe{build: build, t: &hashTable{}, probeKey: l.ProbeKey}
	if bk := sqlparse.NewNames(build.Cols).Index(l.BuildKey); bk >= 0 {
		j.t = o.hashTable(build.Rows, bk)
	}
	return j
}

// bind is j bound to header, after f (nil: none) types the cells it reads.
func (j *probe) bind(header []string, f *where) *probe {
	b := *j
	b.cols, b.key, b.rest = header, sqlparse.NewNames(header).Index(j.probeKey), make([]int, 0, len(header))
	if b.key < 0 {
		b.key, b.t = 0, &hashTable{}
	}
	for c := range header {
		if c != b.key && (f == nil || !f.reads[c]) {
			b.rest = append(b.rest, c)
		}
	}
	return &b
}

// probeSide is a pushed scan's build side (selectDecoded): its keys and
// await, hashed by the first response to decode, and the last response's
// binding of it, which a response naming the same columns reuses.
type probeSide struct {
	Load
	hashed sync.Once
	j      *probe
	last   atomic.Pointer[probe]
}

// part is one partition: while a load decodes it, the object it was
// fetched as, its header read (open), and its decoded rows, row-major: rows
// rows of width() cells in one array (cells) or, when a predicate filters
// them or a probe joins them, in blocks (full, then cells) — or, when they
// fold, none. A scan decodes each partition into its part inside its
// fan-out, and cuts the rows of all of them once after it (cutRows), so the
// decode never hands out a window of an array it may still grow.
type part struct {
	cols    []string
	cells   []value.Value
	full    [][]value.Value // the filled blocks before cells
	block   int             // a blocked part's largest block in cells; 0 for one array
	rows    int
	decoded int64 // the rows decoded, kept or not
	kept    int64 // the rows the predicate kept (all of them with none)
	failed  error // the predicate's first error over the part's rows

	// What open read: the "get <key>" span decode ends, the kept columns'
	// header positions, and the object's rows — a CSV object's scanner,
	// past the header line, or a colformat object's reader.
	sp   *obs.Span
	keep []int
	data []byte
	sc   *csvx.Scanner
	col  *colformat.Reader

	// What decode runs each row through (take): the predicate, the block
	// the rows fold into and the cells it reads that f does not, the probe
	// and its matches, the row they read, the block's first error, and the
	// chunks a CSV part's kept text is copied into (own).
	f       *where
	x       *expr.RowExec
	need    []int
	j       *probe
	match   []int
	scratch []value.Value
	aggErr  error
	chunks  arena.Text
	text    []byte
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
	} else if p.sc = csvx.NewScanner(data); p.sc.Scan() {
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

// decode types the rows of p, opened, that f keeps (all of them with no f)
// and ends its span. With g bound to a header as wide as p's, the rows fold
// into a block of p's own (RowExec.Partial) instead of staying; with j,
// only the rows that join stay, joined.
func (p *part) decode(f *where, g *groupFold, j *probe, workers int) error {
	defer p.sp.End()
	p.f = f.over(p)
	if j != nil && len(j.cols) == len(p.cols) { // another width: the load refuses it (keptCols)
		p.j = j
	}
	if g != nil && g.err == nil && len(g.cols) == len(p.cols) {
		p.x, p.need = g.x.Partial(), g.need
	}
	if p.f != nil || p.x != nil || p.j != nil {
		p.scratch = make([]value.Value, len(p.cols))
	}
	if p.col != nil {
		return p.fromColumnar(workers)
	}
	return p.decodeCSV()
}

// take runs one decoded row through the load, cell(c) typing its kept cell
// c. With a predicate, the cells it reads type into p.scratch first, and a
// row it fails goes no further; with a block, the cells the block reads
// type there too and the row folds into it. With a probe, the key types
// there too, and only a row with matches types the rest, owns its text and
// is kept once per match, after the match's build row. Otherwise the row is
// kept, appended to p and filled.
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
		if !f.pass(p, p.scratch) {
			return
		}
	}
	p.kept++
	if p.x != nil {
		for _, c := range p.need {
			p.scratch[c] = cell(c)
		}
		if p.aggErr == nil {
			p.aggErr = p.x.Add(p.scratch)
		}
		return
	}
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
		p.own(p.scratch)
		for _, b := range p.match {
			row := p.row()
			n := copy(row, j.build.Rows[b])
			copy(row[n:], p.scratch)
		}
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

// own copies row's text cells into p's chunks when they view p's CSV
// object (ownText): a Relation outlives the GET that fetched it. A
// colformat chunk's text is its own already.
func (p *part) own(row []value.Value) {
	if p.sc != nil {
		p.text = ownText(row, &p.chunks, p.text)
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

// keptCols is the columns of parts' rows: the first part's with columns or
// rows (a zero-byte partition has neither), the rest as wide as it.
func keptCols(parts []part) ([]string, error) {
	var cols []string
	for _, p := range parts {
		if len(p.cols) == 0 && p.rows == 0 {
			continue
		}
		if cols == nil {
			cols = p.cols
		}
		if len(p.cols) != len(cols) {
			return nil, fmt.Errorf("engine: partitions differ in width: %v vs %v", cols, p.cols)
		}
	}
	return cols, nil
}

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

// errNoBuild fails a probing load whose build side failed to load, which
// is the error its caller reports (baselineJoin).
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

// partWorkers is the worker budget of one partition's decode inside a
// fan-out over n partitions, whose decodes already run concurrently: the
// budget splits across the fan-out, so total decode concurrency matches the
// Cores budget the cost model prices. That budget (cloudsim.Config.Workers,
// capped at Cores) is the server's worker pool: the paper's compute node is
// a 32-core r4.8xlarge, and pushdown only pays off against a server that is
// itself well-utilized, so row work (columnar chunk decode, top-K heaps,
// Bloom keys, every local operator's spans) splits across it. Each
// worker owns a contiguous ascending row range and partial results merge in
// worker order, so the output is byte-identical to the workers=1 run.
func (e *Exec) partWorkers(n int) int { return max(e.workers()/max(n, 1), 1) }

// fromColumnar decodes an opened colformat object (the paper's Fig. 11
// columnar layout) one row group at a time, reading only the kept columns'
// chunks, each into its one vector by the worker whose span holds it, and
// runs the group's rows through the load (take) before the next group
// overwrites the vectors. Rows come from decoded chunks, never from a count
// a footer claims.
func (p *part) fromColumnar(workers int) error {
	vecs := make([]*vec.Vector, len(p.cols))
	var i int // the row being taken
	cell := func(c int) value.Value { return vecs[c].Value(i) }
	for g := 0; g < p.col.NumRowGroups(); g++ {
		err := vec.RunSpans(vec.RowSpans(len(vecs), workers), func(w int, sp vec.Span) (err error) {
			for c := sp.Lo; c < sp.Hi && err == nil; c++ {
				vecs[c], _, err = p.col.ReadColumn(g, at(p.keep, c), vecs[c])
			}
			return err
		})
		if err != nil {
			return err
		}
		n := 0 // the decoded chunks' length, as vec.NewBatch reads it
		if len(vecs) > 0 {
			n = vecs[0].Len()
		}
		switch {
		case p.x != nil:
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

// decodeCSV types an opened CSV object's cells straight off the scanner:
// one pass, no intermediate rows of strings, and only the cells the load
// needs of the kept columns (take). The scanner's fields are views of the
// object, so this is where loaded rows come to own their bytes: a kept
// row's text cells are copied into the partition's chunks (part.own;
// numbers and dates hold no bytes at all), and a dropped, unjoined or
// folded row's cells, typed only in the scratch row, are unreachable once
// the decode returns. Unfiltered cells go into one array sized from the
// line count, filtered or joined ones into blocks (part.blocks), folded
// ones nowhere. Every row is as wide as the kept header (value.CSVCell). A
// zero-byte object decodes to no columns and no rows.
func (p *part) decodeCSV() error {
	if p.cols == nil {
		return nil
	}
	if p.x == nil {
		lines := bytes.Count(p.data, []byte{'\n'}) // the row count, unless cells hold newlines
		// A cell takes a byte at least: linear in the object, wide header or not.
		bound := min(lines*len(p.cols), len(p.data))
		if p.f != nil || p.j != nil {
			p.blocks(bound)
		} else {
			p.cells = make([]value.Value, 0, bound)
		}
	}
	return p.scan(p.sc)
}

// scan is the one loop over a CSV body's lines: each runs through take,
// its kept cell c typed from field at(p.keep, c) by value.CSVCell.
func (p *part) scan(sc *csvx.Scanner) error {
	var fields []string
	cell := func(c int) value.Value { return value.CSVCell(fields, at(p.keep, c)) }
	for sc.Scan() {
		fields = sc.Fields()
		p.take(cell)
	}
	return sc.Err()
}

// ownText copies row's text cells into chunks, in one piece, so that row
// no longer views the bytes they were typed from. buf is scratch, returned
// for the next call.
func ownText(row []value.Value, chunks *arena.Text, buf []byte) []byte {
	buf = buf[:0]
	for _, v := range row {
		if v.Kind() == value.KindString {
			buf = append(buf, v.AsString()...)
		}
	}
	if owned := chunks.String(buf); owned != "" {
		for j, v := range row {
			if v.Kind() == value.KindString {
				n := len(v.AsString())
				row[j], owned = value.Str(owned[:n]), owned[n:]
			}
		}
	}
	return buf
}

// decodeRows types CSV rows with no header line under cols — a select
// response's body, or the rows an IndexScan fetched by range — by
// decodeCSV's rule, every row as wide as cols (value.CSVCell), into one
// array presized for n rows; or, with j bound to cols, only the joined rows
// of each row's probe (part.take), in blocks. Text cells view body, which
// its owner never modifies.
func decodeRows(cols []string, body []byte, n int, j *probe) (part, error) {
	p := part{cols: cols}
	if bound := min(n*len(cols), len(body)); j == nil || len(cols) == 0 {
		p.cells = make([]value.Value, 0, bound)
	} else {
		p.j, p.scratch = j, make([]value.Value, len(cols))
		p.blocks(bound)
	}
	err := p.scan(csvx.NewScanner(body))
	return p, err
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
	rel, rows, err := e.selectDecoded(st, table, req, nil, nil)
	if err == nil {
		st.AddServerRows(rows * perRow)
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
// With on, each response waits for on.await's build side, and its rows
// probe the build side's hash table on on's keys as they decode, bound to
// the columns it names: the relation is Operators.HashJoin(build, <the
// relation without on>, on.BuildKey, on.ProbeKey)'s, or its error, but a
// response naming the probe key elsewhere than the first does is refused.
// A body that is not the rows its stats claim fails either way. It also
// answers the rows the responses held.
func (e *Exec) selectDecoded(st step, table string, req selectengine.Request, fold *groupFold, on *probeSide) (*Relation, int64, error) {
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
		var j *probe
		if on != nil {
			on.hashed.Do(func() {
				if build := on.await(); build != nil {
					on.j = hashProbe(build, &on.Load, Operators{Workers: e.workers()})
				}
			})
			if on.j == nil { // no build side to probe: the response is not the join's
				return nil
			}
			if j = on.last.Load(); j == nil || !slices.Equal(j.cols, res.Columns) {
				j = on.j.bind(res.Columns, nil)
				on.last.Store(j)
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
		parts[i], err = decodeRows(res.Columns, res.Body, csvx.RowBound(res.Body, len(res.Columns), claimed), j)
		if err == nil {
			err = checkClaim(res, parts[i].decoded)
		}
		return err
	})
	if err == nil && on != nil && on.j == nil {
		err = errNoBuild
	}
	if err != nil {
		return nil, 0, err
	}
	if fold != nil {
		st.sp.SetInt("rows", fold.rows)
		return nil, fold.rows, nil
	}
	cols, err := keptCols(parts)
	if err == nil && on != nil {
		var pk int
		_, pk, err = joinKeys(on.j.build.Cols, cols, on.BuildKey, on.ProbeKey)
		for _, p := range parts { // each response bound the columns it names: the key must sit where the relation's does
			if err == nil && len(p.cols) > 0 && sqlparse.NewNames(p.cols).Index(on.ProbeKey) != pk {
				err = fmt.Errorf("engine: join key %q is not column %d of every response: %v", on.ProbeKey, pk+1, p.cols)
			}
		}
		cols = append(slices.Clip(on.j.build.Cols), cols...)
	}
	if err != nil {
		return nil, 0, err
	}
	rows := int64(0)
	for _, p := range parts {
		rows += p.decoded
	}
	out := cutRows(parts, cols)
	st.sp.SetInt("rows", rows)
	return out, rows, nil
}

// groupFold is a grouped tail that sees no relation: one aggregation block,
// bound to the columns its input rows are laid out as, that rows fold into
// as they decode — a pushed scan's response bodies, row by row in partition
// order (selectDecoded), or a baseline load's partitions, each into a block
// of its own merged in partition order (loadTable). The groups collect into
// out when the block finishes.
type groupFold struct {
	keys  []sqlparse.Expr
	items []sqlparse.SelectItem
	x     *expr.RowExec
	err   error         // x's binding's
	cols  []string      // the columns x is bound to
	need  []int         // the positions x reads, a load's Where's left out
	row   []value.Value // the scratch row a response's rows fold through
	rows  int64         // the rows folded so far
	out   *Relation
}

// newGroupFold binds the grouping of keys and items to the columns pushed,
// the scan's statement, returns: never *, whose columns only a response
// would name (pushedScan).
func newGroupFold(pushed *sqlparse.Select, keys []sqlparse.Expr, items []sqlparse.SelectItem) (*groupFold, error) {
	f := &groupFold{keys: keys, items: items}
	cols := make([]string, len(pushed.Items))
	for i, it := range pushed.Items {
		cols[i] = it.Name()
	}
	if f.bind(cols, false); f.err == nil {
		f.need = f.x.Cols()
	}
	f.row = make([]value.Value, len(cols))
	return f, f.err
}

// bind binds the block to rows laid out as cols (nil: none, every column
// past a row's end), its output rows collecting into out — owning their
// text with own, however the rows folded view theirs.
func (f *groupFold) bind(cols []string, own bool) {
	f.cols = cols
	f.out = &Relation{Cols: itemCols(&Relation{Cols: cols}, f.items)}
	emit := f.out.collect()
	if own {
		collect, chunks, buf := emit, &arena.Text{}, []byte(nil)
		emit = func(row []value.Value) error {
			buf = ownText(row, chunks, buf)
			return collect(row)
		}
	}
	f.x, f.err = expr.NewAggregation(cols, nil, f.keys, sqlparse.ItemExprs(f.items), emit)
}

// bindLoad binds f to a load's first kept header, after its Where (nil:
// none) types the cells it reads. A folded row's text views its GET's
// object, and so does a group key or a MIN or MAX kept from it, so the
// output rows own their text: the result never keeps an object reachable.
func (f *groupFold) bindLoad(header []string, w *where) {
	f.bind(header, true)
	if f.err == nil {
		for _, j := range f.x.Cols() {
			if w == nil || !w.reads[j] {
				f.need = append(f.need, j)
			}
		}
	}
}

// merge folds the partitions' blocks into f's in partition order, once the
// grouping has bound and no partition's block failed: the first
// partition's first failing row is the error, as over the concatenation.
func (f *groupFold) merge(parts []part) error {
	err := f.err
	for _, p := range parts {
		if err == nil {
			err = p.aggErr
		}
	}
	for _, p := range parts {
		if err == nil && p.x != nil {
			err = f.x.Merge(p.x)
			f.rows += p.kept
		}
	}
	return err
}

// finish emits the block's groups into f's output.
func (f *groupFold) finish() (*Relation, error) { return f.out, f.x.Finish() }

// body folds one response into the block. It fails unless the response
// names the bound columns and its body holds the rows its stats claim; the
// rows before the one where that shows are folded already.
func (f *groupFold) body(res *selectengine.Result) error {
	if !slices.Equal(res.Columns, f.cols) {
		return fmt.Errorf("engine: a response's columns %v are not its request's %v", res.Columns, f.cols)
	}
	p := part{cols: f.cols, x: f.x, need: f.need, scratch: f.row}
	err := p.scan(csvx.NewScanner(res.Body))
	f.rows += p.decoded
	if err = cmp.Or(p.aggErr, err); err == nil {
		err = checkClaim(res, p.decoded)
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
