package engine

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"pushdowndb/internal/cloudsim"
	"pushdowndb/internal/colformat"
	"pushdowndb/internal/csvx"
	"pushdowndb/internal/index"
	"pushdowndb/internal/s3api"
	"pushdowndb/internal/selectengine"
	"pushdowndb/internal/sqlparse"
	"pushdowndb/internal/value"
)

// Table statistics objects (docs/ARCHITECTURE.md, "Table statistics
// object"). Every loader finishes a table by writing <table>/_stats: the
// table's exact shape and a systematic sample of its rows. The planner reads
// it with one metered GET per table per DB and estimates a pushed filter's
// cardinality by running the ordinary probe SQL over the sample, locally; a
// table without a usable object plans by header GET and pushed probe. Layout:
//
//	pushdowndb-stats,1,<csv|columnar>,<rows>,<sample rows>,<sample bytes>,<partitions>,<bytes of each partition>...
//	<the sample, <sample bytes> long: a CSV object whose header names the table's columns>

const (
	// statsSampleRows caps the sample: a table of N rows keeps rows 0, k,
	// 2k, ... with k = ⌈N/statsSampleRows⌉ — all of them when N fits.
	statsSampleRows = 2048
	// maxStatsObjectBytes is the largest object the planner fetches and
	// trusts; the loaders' own objects are a tenth of it.
	maxStatsObjectBytes = 4 << 20
	statsMagic          = "pushdowndb-stats,1,"
)

// Where a scan's planning statistics were made (TableScan.StatsSource).
const (
	StatsFromObject = "stats" // the table's statistics object
	StatsFromProbe  = "probe" // a pushed COUNT(*) probe of the whole table
)

// StatsKey returns the key of a table's statistics object. It sits outside
// the "<table>/part" listing prefix, like the index objects.
func StatsKey(table string) string { return table + "/_stats" }

// strideSample returns the statistics sample of rows.
func strideSample[T any](rows []T) []T {
	k := (len(rows) + statsSampleRows - 1) / statsSampleRows
	if k <= 1 {
		return rows
	}
	out := make([]T, 0, (len(rows)+k-1)/k)
	for i := 0; i < len(rows); i += k {
		out = append(out, rows[i])
	}
	return out
}

// encodeTableStats renders a statistics object: format is "csv" or
// "columnar", rows the table's row count, partSizes the bytes of every
// partition just written, sample the strideSample of the rows as CSV cells.
func encodeTableStats(format string, cols []string, rows int, partSizes []int64, sample [][]string) []byte {
	body := csvx.Encode(cols, sample)
	out := fmt.Appendf(nil, "%s%s,%d,%d,%d,%d", statsMagic, format, rows, len(sample), len(body), len(partSizes))
	for _, n := range partSizes {
		out = fmt.Appendf(out, ",%d", n)
	}
	return append(append(out, '\n'), body...)
}

// statsObj is a decoded statistics object.
type statsObj struct {
	columnar    bool
	cols        []string
	rows, bytes int64 // the table's, exact
	partSizes   []int64
	sampleRows  int64
	sample      []byte // CSV with header: a view of the fetched object
}

// decodeTableStats parses and checks a statistics object. Nothing is sized
// by a number the object claims, only by the fields actually present, and
// the sample is scanned once: a caller may rely on it holding exactly
// sampleRows rows of len(cols) cells under its header, cols.
func decodeTableStats(data []byte) (*statsObj, error) {
	line, sample, _ := bytes.Cut(data, []byte{'\n'})
	preamble, ok := strings.CutPrefix(string(line), statsMagic)
	format, counts, _ := strings.Cut(preamble, ",")
	if !ok || (format != "csv" && format != "columnar") {
		return nil, errors.New("engine: not a version-1 table statistics object")
	}
	var n []int64 // rows, sample rows, sample bytes, partitions, each partition's bytes
	for _, f := range strings.Split(counts, ",") {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil || v < 0 {
			return nil, fmt.Errorf("engine: table statistics preamble: bad count %q", f)
		}
		n = append(n, v)
	}
	if len(n) < 4 || int64(len(n)-4) != n[3] {
		return nil, errors.New("engine: table statistics preamble does not list a size for every partition")
	}
	ts := &statsObj{columnar: format == "columnar", rows: n[0], sampleRows: n[1], partSizes: n[4:], sample: sample}
	for _, size := range ts.partSizes {
		ts.bytes += size
	}
	stride := max(1, (ts.rows+statsSampleRows-1)/statsSampleRows)
	if ts.sampleRows != (ts.rows+stride-1)/stride || n[2] != int64(len(sample)) {
		return nil, fmt.Errorf("engine: table statistics claim a %d-byte sample of %d rows for a table of %d, and hold %d bytes",
			n[2], ts.sampleRows, ts.rows, len(sample))
	}
	sc := csvx.NewScanner(sample)
	if colformat.IsColumnar(sample) || !sc.Scan() {
		return nil, errors.New("engine: table statistics sample is not a CSV object with a header")
	}
	ts.cols = csvx.CloneRow(sc.Fields())
	var got int64
	for ; sc.Scan(); got++ {
		if len(sc.Fields()) != len(ts.cols) {
			return nil, fmt.Errorf("engine: table statistics sample row %d has %d cells, the table %d columns", got, len(sc.Fields()), len(ts.cols))
		}
	}
	if sc.Err() != nil || got != ts.sampleRows {
		return nil, fmt.Errorf("engine: table statistics sample holds %d rows, the preamble says %d", got, ts.sampleRows)
	}
	return ts, nil
}

// tableMeta is what the DB remembers of one table's catalog objects until
// void: its statistics object (statsObject; nil with statsRead set: none
// usable) and its validated index manifest (indexManifest; nil: not read).
type tableMeta struct {
	stats     *statsObj
	statsRead bool
	manifest  *index.Manifest
}

// metaOf returns the table's metadata entry and the void generation it was
// read at.
func (db *DB) metaOf(table string) (tableMeta, int64) {
	db.statsMu.Lock()
	defer db.statsMu.Unlock()
	return db.meta[table], db.metaGen
}

// remember replaces the table's metadata entry m with set(m), for a read
// that began at void generation gen, unless a void has run since: the table
// may have changed under the read.
func (db *DB) remember(table string, gen int64, set func(m tableMeta) tableMeta) {
	db.statsMu.Lock()
	defer db.statsMu.Unlock()
	if db.metaGen != gen {
		return
	}
	if db.meta == nil {
		db.meta = map[string]tableMeta{}
	}
	db.meta[table] = set(db.meta[table])
}

// statsObject returns the table's statistics object, or nil when the table
// has no usable one — missing, malformed, oversized, or stale against the
// live partitions (checked as the index manifest's stamps are) — and must
// be planned by header GET and remote probe. The first use per DB fetches
// it: one catalog GET charged to the query as the phase and span "plan
// stats <table>". The verdict, either way, is memoized until void.
func (e *Exec) statsObject(table string, stage int) *statsObj {
	db := e.db
	m, gen := db.metaOf(table)
	if m.statsRead {
		return m.stats
	}
	var ts *statsObj
	if _, err := e.parts(table); err != nil {
		return nil // no such table: the fallback reports it, nothing is remembered
	}
	// The step's phase opens only once there is an object to pay for, so a
	// table without one leaves the same phases behind as it always did: the
	// ranged GET, which its caller bills, runs while the phase is still nil.
	st := step{sp: e.parent().Child("plan stats " + table)}
	data, err := db.store(table).GetRange(e.ctx, st.Phase, StatsKey(table), 0, maxStatsObjectBytes)
	if err == nil {
		st.open(e, "plan stats "+table, stage, table)
		st.AddCatalogRequest(int64(len(data)))
		st.sp.SetInt("bytes", int64(len(data)))
		if len(data) > maxStatsObjectBytes {
			err = fmt.Errorf("over %d bytes", maxStatsObjectBytes)
		} else if ts, err = decodeTableStats(data); err == nil {
			var live []int64
			if live, err = db.livePartSizes(e.ctx, table); err == nil && !slices.Equal(live, ts.partSizes) {
				// Loaders write the object last, so a reader racing a reload
				// lands here, not on statistics of the wrong rows.
				err = fmt.Errorf("stale: partitions of %v bytes recorded, %v live", ts.partSizes, live)
			}
		}
	} else if kind := s3api.KindOf(err); kind != s3api.KindNotFound && kind != s3api.KindInvalidRange {
		st.end(err)
		return nil // the backend's trouble, not the table's: ask again next time
	}
	if err != nil { // no object (or an empty one), or one not to be trusted
		ts = nil
		st.sp.SetStr("ignored", err.Error())
	} else {
		st.sp.SetInt("sample_rows", ts.sampleRows)
	}
	st.end(nil)
	if e.ctx.Err() != nil {
		return nil // a canceled check is no verdict
	}
	db.remember(table, gen, func(m tableMeta) tableMeta {
		m.stats, m.statsRead = ts, true
		return m
	})
	return ts
}

// tableShape returns the table's statistics object and column names: both
// from the object when it is usable, else no object and a header GET's names.
func (e *Exec) tableShape(table string, stage int) (*statsObj, []string, error) {
	if ts := e.statsObject(table, stage); ts != nil {
		return ts, ts.cols, nil
	}
	cols, err := e.TableHeader("plan header "+table, stage, table)
	return nil, cols, err
}

// tableStats is the object's exact half of the planner's view of the table.
func (ts *statsObj) tableStats() cloudsim.PlanTableStats {
	return cloudsim.PlanTableStats{Bytes: ts.bytes, Rows: ts.rows, Partitions: len(ts.partSizes), Columnar: ts.columnar}
}

// scaled is a count of sample rows as an estimate for the table: n × rows /
// sample rows, or, when no sample row counted, half of one sample row's
// weight (at least 1). A sample that is the whole table counts exactly.
func (ts *statsObj) scaled(n int64) int64 {
	weight := float64(ts.rows) / float64(max(ts.sampleRows, 1))
	switch {
	case ts.sampleRows == ts.rows:
		return n
	case n == 0:
		return max(1, int64(math.Round(weight/2)))
	}
	return int64(math.Round(float64(n) * weight))
}

// sampleSelect runs stmt over the table's sample with the select engine itself
// — the one estimator — and charges the query sample_rows units of row work,
// on the step "plan stats <table>", which the caller ends once it has said
// what it found. The response is lent to a sink that decodes it as a part
// (decodeResponse): its rows come typed, and own their text.
func (e *Exec) sampleSelect(ts *statsObj, table string, stmt *sqlparse.Select, stage int) ([]Row, step, error) {
	st := e.step("plan stats "+table, "plan stats "+table, stage, table)
	st.AddServerSeconds(float64(ts.sampleRows) * e.db.Cfg.RowWorkSecPerRow)
	var rel *Relation
	err := selectengine.Run(ts.sample, e.db.request(table, stmt), func(res *selectengine.Result) (err error) {
		rel, err = decodeResponse(e.ctx, &decoder{}, res)
		return err
	})
	if err != nil {
		return nil, st, err
	}
	st.sp.SetInt("bytes", int64(len(ts.sample)))
	st.sp.SetInt("sample_rows", ts.sampleRows)
	st.sp.SetStr("source", StatsFromObject)
	return rel.Rows, st, nil
}

// probeCounts sums the counts of table's planning probe over its responses'
// rows, one a response of one cell per item: an INT, or NULL — a SUM over
// no rows — as zero.
func probeCounts(table string, parts [][]Row, items int) ([]int64, error) {
	counts := make([]int64, items)
	for _, rows := range parts {
		ok := len(rows) == 1 && len(rows[0]) == items
		for i := 0; ok && i < items; i++ {
			k := rows[0][i].Kind()
			ok = k == value.KindInt || k == value.KindNull
			n, _ := rows[0][i].IntNum()
			counts[i] += n
		}
		if !ok {
			return nil, fmt.Errorf("engine: planning probe for %s returned unexpected shape", table)
		}
	}
	return counts, nil
}
