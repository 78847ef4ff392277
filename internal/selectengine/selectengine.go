// Package selectengine executes S3 Select requests against object payloads.
// It implements the restricted SQL surface AWS S3 Select offered when the
// paper was written (Section II-A): selection, projection and aggregation
// without group-by over CSV or columnar ("Parquet") objects, a 256 KB
// expression-size limit, LIMIT with early scan termination, and results
// that are always re-encoded as CSV regardless of the input format (the
// behaviour behind the paper's Fig. 11 observation).
//
// A response is its CSV body, on every backend and on the wire: each output
// row's text is rendered once, into a buffer the package's scans reuse, and
// copied once into a body of exactly its length that the response owns;
// whoever reads the rows decodes that body once. Stats is what storage
// counted while writing it, never derived from it.
//
// A name denotes the first header column equal to it case-insensitively,
// failing that _N (1 ≤ N ≤ width) the N-th column, and otherwise no column:
// the server's rule too (sqlparse.Names), so a statement the planner pushes
// reads the columns it would read locally. A header-less object's columns
// are named _1 … _N.
//
// Extensions the paper proposes in Section X are available behind
// Capabilities flags so ablation benchmarks can compare with/without:
// partial GROUP BY (Suggestion 4) and the BLOOM_CONTAINS bitwise Bloom
// probe (Suggestion 3).
package selectengine

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"pushdowndb/internal/colformat"
	"pushdowndb/internal/csvx"
	"pushdowndb/internal/expr"
	"pushdowndb/internal/sqlparse"
	"pushdowndb/internal/value"
	"pushdowndb/internal/vec"
)

// MaxSQLBytes is S3 Select's SQL expression size limit (Section V-B1).
const MaxSQLBytes = 256 * 1024

// Capabilities toggles the Section-X extensions.
type Capabilities struct {
	// AllowGroupBy enables partial server-side GROUP BY (Suggestion 4).
	AllowGroupBy bool
	// AllowBloomContains enables the BLOOM_CONTAINS function
	// (Suggestion 3). Without it, Bloom predicates must be expressed with
	// the SUBSTRING-over-'0'/'1'-string encoding the paper uses.
	AllowBloomContains bool
}

// Intersect returns the capabilities allowed by both sets. Storage
// backends use it to clamp a request's asked-for extensions to what they
// actually execute.
func (c Capabilities) Intersect(o Capabilities) Capabilities {
	return Capabilities{
		AllowGroupBy:       c.AllowGroupBy && o.AllowGroupBy,
		AllowBloomContains: c.AllowBloomContains && o.AllowBloomContains,
	}
}

// ErrUnsupported marks a rejection caused by a capability the select
// engine was not granted (a Section-X extension that is switched off),
// as opposed to malformed SQL. Capability rejections wrap it so backends
// can classify them (s3api.KindUnsupported) without string matching.
var ErrUnsupported = errors.New("capability not enabled")

// Request is one S3 Select invocation.
type Request struct {
	SQL          string
	HasHeader    bool // CSV: first row is the header (FileHeaderInfo=USE)
	Capabilities Capabilities
	// ScanRange restricts a CSV scan to rows starting within the byte
	// range [Start, End). Mirrors S3 Select's ScanRange parameter; used by
	// the sampling top-K operator to sample random chunks.
	ScanRange *ScanRange
	stmt      *sqlparse.Select // NewRequest's; SQL is its text
}

// NewRequest is the request that runs stmt: SQL is stmt printed, once — the
// text the cache keys, the size limit measures and the wire carries — and
// in-process storage runs stmt itself. stmt is read-only from then on, shared
// by the request's copies across goroutines, and SQL must not change.
func NewRequest(stmt *sqlparse.Select, hasHeader bool, caps Capabilities) Request {
	return Request{SQL: stmt.String(), HasHeader: hasHeader, Capabilities: caps, stmt: stmt}
}

// Statement returns the request's statement: NewRequest's, or, for a request
// that arrived as text (off the wire), SQL parsed now.
func (r Request) Statement() (*sqlparse.Select, error) {
	if r.stmt == nil {
		return sqlparse.Parse(r.SQL)
	}
	return r.stmt, nil
}

// ScanRange is a half-open byte range.
type ScanRange struct {
	Start, End int64
}

// Fingerprint renders the canonical identity of the request: the SQL plus
// every parameter that changes the response (header mode, capability
// flags, scan range). The result cache keys responses by it and the
// scan-sharing coordinator joins in-flight passes by it, so a cache entry
// and a shared pass always describe the same response.
func (r Request) Fingerprint() string {
	var b strings.Builder
	b.WriteString(r.SQL)
	b.WriteString("\x00h=")
	b.WriteString(strconv.FormatBool(r.HasHeader))
	b.WriteString("\x00g=")
	b.WriteString(strconv.FormatBool(r.Capabilities.AllowGroupBy))
	b.WriteString("\x00b=")
	b.WriteString(strconv.FormatBool(r.Capabilities.AllowBloomContains))
	if r.ScanRange != nil {
		b.WriteString("\x00r=")
		b.WriteString(strconv.FormatInt(r.ScanRange.Start, 10))
		b.WriteString("-")
		b.WriteString(strconv.FormatInt(r.ScanRange.End, 10))
	}
	return b.String()
}

// Stats describes what a request consumed — the inputs to the cost and
// time model.
type Stats struct {
	BytesScanned  int64 // object bytes the storage side had to read
	BytesReturned int64 // encoded CSV result bytes
	RowsScanned   int64
	RowsReturned  int64
	ExprNodes     int64 // per-row expression AST nodes (storage compute)
	// CellsDecoded counts column values the storage side materialized:
	// CSV scans decode every column of every row; columnar scans decode
	// only the referenced columns. This is what makes Parquet's advantage
	// large for narrow queries over wide tables (Fig. 11) and modest for
	// TPC-H (Section IX).
	CellsDecoded int64
	// DecompressBytes is the raw size of compressed chunks the columnar
	// reader had to inflate.
	DecompressBytes int64
}

// Result is one response: Columns names its cells, and Body holds its rows
// as CSV text, a line per row and no header line (csvx's dialect). The body
// is the response's own, exactly its length (cap equals len, so what holds
// it holds no more), and is never modified once returned.
type Result struct {
	Columns []string
	Body    []byte
	Stats   Stats
	// Columnar reports that the scanned object was in the columnar
	// format. The planner's stats probe reads it to learn a table's
	// storage format without issuing any extra request.
	Columnar bool
	// Served is how the compute tier obtained this response; the layers
	// over a backend's Select stamp it (see Served).
	Served Served
}

// Served records how a response reached its caller, stamped by the layers
// composed over a backend's Select (rescache, scanshare) on the per-caller
// Result they return. The zero value is a plain direct backend pass, so a
// backend — and a pipeline with no layers — never touches it. The engine
// meters and traces a select from this stamp alone.
type Served struct {
	// Cache is CacheHit or CacheMiss when a result cache was consulted,
	// empty otherwise. A hit reached no backend.
	Cache string
	// Sharers is how many requests shared the backend pass that produced
	// the response (1 = a solo pass); 0 when no scan-sharing coordinator
	// was in the path.
	Sharers int
	// Coalesced is set when another request led the pass (issued the
	// backend call); exactly one sharer per pass has it clear, and the
	// cache fill belongs to that one.
	Coalesced bool
	// Pass is what storage did for the whole shared pass (Sharers > 1), as
	// opposed to Result.Stats, which describes this caller's slice of it.
	Pass Stats
	// LocalRows is how many rows of a predicate-merged pass this caller
	// re-filtered locally (0 for verbatim passes).
	LocalRows int64
}

// Served.Cache values.
const (
	CacheHit  = "hit"
	CacheMiss = "miss"
)

// Records decodes the body into rows of cells, each row as wide as Columns,
// and fails unless it holds Stats.RowsReturned of them (Check). It allocates
// one array for every cell and one for the rows, sized by what the body can
// hold (csvx.RowBound), not by the count a response claims. Cells view the body.
func (r *Result) Records() ([][]string, error) {
	w := len(r.Columns)
	n := csvx.RowBound(r.Body, w, r.Stats.RowsReturned)
	rows, cells := make([][]string, 0, n), make([]string, 0, n*w)
	if err := r.scan(func(fields []string) {
		cells = append(cells, fields...)
		rows = append(rows, cells[len(cells)-w:len(cells):len(cells)])
	}); err != nil {
		return nil, err
	}
	return rows, nil
}

// Check fails unless the body holds Stats.RowsReturned rows, each as wide as
// Columns. It keeps no cell.
func (r *Result) Check() error { return r.scan(func([]string) {}) }

// scan is Check, handing each row's fields (valid during the call) to row.
func (r *Result) scan(row func(fields []string)) error {
	sc, n := csvx.NewScanner(r.Body), int64(0)
	more := sc.Scan()
	for ; more && n < r.Stats.RowsReturned && len(sc.Fields()) == len(r.Columns); more = sc.Scan() {
		row(sc.Fields())
		n++
	}
	if more || sc.Err() != nil || n != r.Stats.RowsReturned {
		return fmt.Errorf("selectengine: a %d-byte response body is not the %d rows of %d cells its stats claim", len(r.Body), r.Stats.RowsReturned, len(r.Columns))
	}
	return nil
}

// Execute runs the request against one object payload.
func Execute(data []byte, req Request) (*Result, error) {
	if len(req.SQL) > MaxSQLBytes {
		return nil, fmt.Errorf("selectengine: SQL expression is %d bytes; limit is %d", len(req.SQL), MaxSQLBytes)
	}
	sel, err := req.Statement()
	if err != nil {
		return nil, err
	}
	if err := validate(sel, req.Capabilities); err != nil {
		return nil, err
	}
	if colformat.IsColumnar(data) {
		if req.ScanRange != nil {
			return nil, fmt.Errorf("selectengine: ScanRange is only supported for CSV objects")
		}
		return executeColumnar(data, sel, req)
	}
	return executeCSV(data, sel, req)
}

func validate(sel *sqlparse.Select, caps Capabilities) error {
	if len(sel.Joins) > 0 {
		return fmt.Errorf("selectengine: JOIN is not supported by S3 Select (single-object queries only)")
	}
	if len(sel.OrderBy) > 0 {
		return fmt.Errorf("selectengine: ORDER BY is not supported by S3 Select")
	}
	if len(sel.GroupBy) > 0 && !caps.AllowGroupBy {
		return fmt.Errorf("selectengine: GROUP BY is not supported by S3 Select (enable Capabilities.AllowGroupBy for the Suggestion-4 extension): %w", ErrUnsupported)
	}
	hasAgg := sel.HasAggregates()
	if hasAgg && len(sel.GroupBy) == 0 {
		for _, it := range sel.Items {
			if _, isStar := it.Expr.(*sqlparse.Star); isStar {
				return fmt.Errorf("selectengine: cannot mix * with aggregates")
			}
			if !sqlparse.ContainsAggregate(it.Expr) && !isConstant(it.Expr) {
				return fmt.Errorf("selectengine: aggregation without GROUP BY cannot select bare columns")
			}
		}
	}
	if !caps.AllowBloomContains {
		if containsCallNamed(sel, "BLOOM_CONTAINS") {
			return fmt.Errorf("selectengine: BLOOM_CONTAINS requires Capabilities.AllowBloomContains (Suggestion 3): %w", ErrUnsupported)
		}
	}
	return nil
}

func isConstant(e sqlparse.Expr) bool {
	return len(sqlparse.Columns(e)) == 0 && !sqlparse.ContainsAggregate(e)
}

// walkSelect visits every expression node the storage side evaluates per
// row: the select list, WHERE and GROUP BY.
func walkSelect(sel *sqlparse.Select, f func(sqlparse.Expr) bool) {
	for _, it := range sel.Items {
		sqlparse.Walk(it.Expr, f)
	}
	sqlparse.Walk(sel.Where, f)
	for _, g := range sel.GroupBy {
		sqlparse.Walk(g, f)
	}
}

func containsCallNamed(sel *sqlparse.Select, name string) bool {
	found := false
	walkSelect(sel, func(e sqlparse.Expr) bool {
		if c, ok := e.(*sqlparse.Call); ok && c.Name == name {
			found = true
		}
		return !found
	})
	return found
}

// CountNodes estimates per-row expression evaluation work: the number of
// AST nodes in WHERE plus the select list. This feeds the cloudsim
// storage-compute term.
func CountNodes(sel *sqlparse.Select) int64 {
	var n int64
	walkSelect(sel, func(sqlparse.Expr) bool { n++; return true })
	return n
}

// cursor is a scan's row cursor: the expr.Env its statement evaluates, and
// the current row's cells by header position, which * reads.
type cursor interface {
	expr.Env
	at(i int) value.Value
}

// rowEnv adapts a CSV row to the expression evaluator. All fields are
// strings, exactly as S3 Select sees CSV data.
type rowEnv struct {
	names  sqlparse.Names
	fields []string
}

func (r *rowEnv) Lookup(_, name string) (value.Value, bool) {
	i := r.names.Index(name)
	return r.at(i), i >= 0
}

// at reads cell i, NULL when it is empty or past the row's end.
func (r *rowEnv) at(i int) value.Value {
	if i < 0 || i >= len(r.fields) || r.fields[i] == "" {
		return value.Null()
	}
	return value.Str(r.fields[i])
}

// positionalNames returns S3 Select's positional column names _1 … _n: a
// header-less object's header, and what * expands to over it.
func positionalNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = "_" + strconv.Itoa(i+1)
	}
	return names
}

func executeCSV(data []byte, sel *sqlparse.Select, req Request) (*Result, error) {
	nodes := CountNodes(sel)

	// Fields are views of data (csvx.Scanner); they are read for as long as
	// this call runs and no longer: everything that reaches the Result is
	// copied on the way in (CloneRow here, executor.emit for the body).
	// An object with no lines at all is a partition with no rows, header
	// or not: the statement still runs, so an aggregate yields its one row.
	sc := csvx.NewScanner(data)
	more := sc.Scan()
	var header []string
	switch {
	case req.HasHeader && more:
		header = csvx.CloneRow(sc.Fields())
		more = sc.Scan()
	case more:
		// No header: the first data row's width names the columns.
		header = positionalNames(len(sc.Fields()))
	}
	env := &rowEnv{names: sqlparse.NewNames(header)}
	exec := newExecutor(sel, header, env)
	defer renders.Put(exec.buf)

	var stats Stats
	stats.ExprNodes = nodes
	start := int64(0)
	if req.ScanRange != nil {
		start = req.ScanRange.Start
	}
	var lastScannedEnd int64
	for ; more; more = sc.Scan() {
		first, last := sc.Range()
		if req.ScanRange != nil {
			if first < req.ScanRange.Start {
				continue
			}
			if first >= req.ScanRange.End {
				break
			}
		}
		lastScannedEnd = last + 1
		stats.RowsScanned++
		stats.CellsDecoded += int64(len(sc.Fields()))
		env.fields = sc.Fields()
		if err := exec.rx.Add(env); err != nil {
			return nil, err
		}
		if exec.terminatedEarly {
			break
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	switch {
	case req.ScanRange != nil:
		// Only the bytes within the range had to be read.
		if lastScannedEnd > start {
			stats.BytesScanned = lastScannedEnd - start
		}
	case exec.terminatedEarly:
		// LIMIT terminated the scan early; S3 charges only what was read.
		stats.BytesScanned = lastScannedEnd
	default:
		stats.BytesScanned = int64(len(data))
	}
	return exec.finish(sel, header, &stats)
}

func executeColumnar(data []byte, sel *sqlparse.Select, req Request) (*Result, error) {
	r, err := colformat.Open(data)
	if err != nil {
		return nil, err
	}
	header := r.Schema().Names()
	env := &colEnv{names: sqlparse.NewNames(header), cols: make([]*vec.Vector, len(header))}
	exec := newExecutor(sel, header, env)
	defer renders.Put(exec.buf)

	// Column pruning: only the referenced columns are read.
	needed := neededColumns(sel, env.names, len(header))
	var stats Stats
	stats.ExprNodes = CountNodes(sel)
	// The footer's length and magic, which Open found, are always read.
	stats.BytesScanned = int64(8 + len(colformat.Magic))

scan:
	for g := 0; g < r.NumRowGroups(); g++ {
		if skipGroup(r, g, sel.Where, env.names) {
			continue
		}
		for _, ci := range needed {
			vals, n, err := r.ReadColumn(g, ci, env.cols[ci])
			if err != nil {
				return nil, err
			}
			env.cols[ci] = vals
			stats.BytesScanned += n
			stats.DecompressBytes += r.ChunkRawLen(g, ci)
		}
		nRows := r.GroupRows(g)
		for i := 0; i < nRows; i++ {
			stats.RowsScanned++
			stats.CellsDecoded += int64(len(needed))
			env.row = i
			if err := exec.rx.Add(env); err != nil {
				return nil, err
			}
			if exec.terminatedEarly {
				break scan
			}
		}
	}
	res, err := exec.finish(sel, header, &stats)
	if err != nil {
		return nil, err
	}
	res.Columnar = true
	return res, nil
}

// neededColumns lists the header positions a columnar scan has to read: every
// column for a * item, else the columns the select list, WHERE and GROUP BY
// reference, in first-seen order. One walk, whatever the select list's length.
func neededColumns(sel *sqlparse.Select, names sqlparse.Names, ncols int) []int {
	seen := make([]bool, ncols)
	var out []int
	add := func(i int) {
		if !seen[i] {
			seen[i] = true
			out = append(out, i)
		}
	}
	for _, it := range sel.Items {
		if _, isStar := it.Expr.(*sqlparse.Star); isStar {
			for i := 0; i < ncols; i++ {
				add(i)
			}
		}
	}
	walkSelect(sel, func(e sqlparse.Expr) bool {
		if c, ok := e.(*sqlparse.Column); ok {
			if i := names.Index(c.Name); i >= 0 {
				add(i)
			}
		}
		return true
	})
	return out
}

// skipGroup prunes a row group when the chunk min/max statistics refute any
// top-level AND conjunct of WHERE that compares a column against a literal:
// one conjunct no row can pass is enough.
func skipGroup(r *colformat.Reader, g int, where sqlparse.Expr, names sqlparse.Names) bool {
	for _, c := range sqlparse.Conjuncts(where) {
		if refuted(r, g, c, names) {
			return true
		}
	}
	return false
}

func refuted(r *colformat.Reader, g int, conjunct sqlparse.Expr, names sqlparse.Names) bool {
	cmp, ok := conjunct.(*sqlparse.Binary)
	if !ok {
		return false
	}
	col, okc := cmp.L.(*sqlparse.Column)
	lit, okl := cmp.R.(*sqlparse.Literal)
	if !okc || !okl {
		return false
	}
	ci := names.Index(col.Name)
	if ci < 0 {
		return false
	}
	mn, mx, ok := r.ChunkStats(g, ci)
	v := lit.Val
	if !ok || !ordered(r.Schema()[ci].Kind, mn, mx, v) {
		return false
	}
	switch cmp.Op {
	case sqlparse.OpEq:
		return value.Compare(v, mn) < 0 || value.Compare(v, mx) > 0
	case sqlparse.OpLt:
		return value.Compare(mn, v) >= 0
	case sqlparse.OpLe:
		return value.Compare(mn, v) > 0
	case sqlparse.OpGt:
		return value.Compare(mx, v) <= 0
	case sqlparse.OpGe:
		return value.Compare(mx, v) < 0
	}
	return false
}

// ordered reports whether comparing lit with a kind-k chunk's cells follows
// the order its min/max were taken in: numbers against a literal that reads
// as one, dates whose text sorts as they do. Never text: value.Compare is no
// order across numeric-looking and other text (9 < 10 < 5x < 9).
func ordered(k value.Kind, mn, mx, lit value.Value) bool {
	if mn.Kind() != k || mx.Kind() != k {
		return false // a statistic that does not read as its column's kind
	}
	_, num := value.CoerceNum(lit)
	return num && (k == value.KindInt || k == value.KindFloat) ||
		k == value.KindDate && value.FourDigitYear(mn.Days()) && value.FourDigitYear(mx.Days())
}

// colEnv adapts one row of the scan's column vectors, by header position
// (nil: not referenced, so never loaded).
type colEnv struct {
	names sqlparse.Names
	cols  []*vec.Vector
	row   int
}

func (c *colEnv) Lookup(_, name string) (value.Value, bool) {
	i := c.names.Index(name)
	if i < 0 || c.cols[i] == nil {
		return value.Null(), false
	}
	return c.cols[i].Value(c.row), true
}

// at reads column i, which a * loaded with every other.
func (c *colEnv) at(i int) value.Value { return c.cols[i].Value(c.row) }

// executor is the storage-specific half of a request. expr.RowExec runs
// the SELECT block (WHERE, then projection, aggregation or grouping); the
// executor expands * over the object's header, renders each output row into
// its render buffer, stops a projecting scan at LIMIT and names the result
// columns.
type executor struct {
	rx *expr.RowExec
	// limit is the row count at which a projecting scan stops (-1: never;
	// LIMIT does not bound aggregated or grouped output).
	limit           int64
	terminatedEarly bool

	buf            *render // from renders, for the scan's length (see emit)
	rows, returned int64   // Stats.RowsReturned and BytesReturned so far
}

// render is a scan's scratch space: the response's rows so far and the cell
// being rendered. Scans take one from renders and put it back when they end,
// so a buffer grown to one response's size renders the next without growing.
type render struct {
	body, text []byte
}

var renders = sync.Pool{New: func() any { return new(render) }}

// newExecutor builds the executor for sel over an object with the given
// header; env is the scan's row cursor, which * reads the current row from.
// The caller puts ex.buf back in renders when the scan ends.
func newExecutor(sel *sqlparse.Select, header []string, env cursor) *executor {
	ex := &executor{limit: -1, buf: renders.Get().(*render)}
	ex.buf.body = ex.buf.body[:0]
	items := sqlparse.ItemExprs(sel.Items)
	if len(sel.GroupBy) > 0 || sel.HasAggregates() {
		ex.rx = expr.NewAggregation(sel.Where, sel.GroupBy, items, ex.emit)
		return ex
	}
	ex.limit = sel.Limit
	ex.rx = expr.NewProjection(sel.Where, items, func(dst []value.Value) []value.Value {
		for i := range header {
			dst = append(dst, env.at(i))
		}
		return dst
	}, ex.emit)
	return ex
}

// emit renders one output row into the render buffer, each cell rendered
// once and quoted by csvx's rule, so a Result never keeps the scanned object
// reachable, whatever views of it the values were. The buffer grows by
// append and is reused by the next scan, so a warm scan renders without
// allocating. BytesReturned counts each cell's text and its separator,
// never the quotes.
func (ex *executor) emit(vals []value.Value) error {
	b := ex.buf
	for i, v := range vals {
		b.text = v.Append(b.text[:0])
		ex.returned += int64(len(b.text)) + 1
		if i > 0 {
			b.body = append(b.body, ',')
		}
		b.body = csvx.AppendField(b.body, b.text)
	}
	b.body = append(b.body, '\n')
	ex.rows++
	if ex.limit >= 0 && ex.rows >= ex.limit {
		ex.terminatedEarly = true
	}
	return nil
}

// finish runs the statement's last rows out and returns the response: its
// body is the rendered rows copied into an array of exactly their length,
// the one allocation a response's bytes cost (nil when there are none).
func (ex *executor) finish(sel *sqlparse.Select, header []string, stats *Stats) (*Result, error) {
	if err := ex.rx.Finish(); err != nil {
		return nil, err
	}
	res := &Result{Stats: *stats}
	if n := len(ex.buf.body); n > 0 {
		res.Body = make([]byte, n)
		copy(res.Body, ex.buf.body)
	}
	for _, it := range sel.Items {
		if _, isStar := it.Expr.(*sqlparse.Star); isStar {
			res.Columns = append(res.Columns, header...)
			continue
		}
		res.Columns = append(res.Columns, it.Name())
	}
	res.Stats.RowsReturned, res.Stats.BytesReturned = ex.rows, ex.returned
	return res, nil
}
