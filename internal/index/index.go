// Package index implements PushdownDB's S3-side secondary indexes
// (Section IV-A of the paper, grown into a persistent subsystem). An index
// on a table column is a set of per-partition index objects — sorted
// |value|first_byte_offset|last_byte_offset| CSV rows, partition-aligned
// with the data objects — plus one manifest object per table that records
// which indexes exist, so a fresh engine.DB rediscovers them from storage
// alone.
//
// Querying an index is a two-hop access path: push the predicate (over the
// "value" column) into an S3 Select against the index objects, coalesce
// the returned byte ranges, then fetch only those ranges of the data
// objects with batched multi-range GETs (Suggestion 1). The engine's
// IndexScan strategy (internal/engine) and its cost model
// (cloudsim.EstimateIndexScan) both build on the layout and coalescing
// rules defined here.
package index

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"pushdowndb/internal/csvx"
	"pushdowndb/internal/value"
)

// Header is the schema of every index object, matching the paper's
// |value|first_byte_offset|last_byte_offset| table.
var Header = []string{ValueColumn, "first_byte_offset", "last_byte_offset"}

// ValueColumn is the index-object column predicates are pushed against.
const ValueColumn = "value"

// DefaultCoalesceGap is how many unselected bytes two matched ranges may be
// apart and still merge into one fetched range. One byte covers the row
// separator between adjacent matched rows; a few extra bytes let tiny
// slivers (a short unmatched row between two matches) ride along — the
// fetched superset is re-filtered on the server anyway.
const DefaultCoalesceGap = 32

// DefaultMaxRangesPerGet caps how many coalesced ranges one multi-range GET
// request carries; larger probes split into several batched requests.
const DefaultMaxRangesPerGet = 256

// ManifestVersion is bumped when the manifest layout changes.
const ManifestVersion = 1

// Prefix is the key namespace of a table's index artifacts. It deliberately
// does not start with the "<table>/part" partition prefix, so data-partition
// listings never see index objects.
func Prefix(table string) string { return table + "/_index" }

// ManifestKey is the object key of a table's index manifest.
func ManifestKey(table string) string { return Prefix(table) + "/manifest.json" }

// Table is the pseudo-table name of one index: its objects live under
// Table(...)+"/partNNNN.csv", so the engine's partition listing and select
// fan-out work on index objects unchanged.
func Table(table, column string) string {
	return Prefix(table) + "/" + strings.ToLower(column)
}

// ObjectKey is the key of partition part of an index.
func ObjectKey(table, column string, part int) string {
	return fmt.Sprintf("%s/part%04d.csv", Table(table, column), part)
}

// Entry describes one index in a table's manifest.
type Entry struct {
	// Name is the index's SQL-visible name (CREATE INDEX name ON ...).
	Name string `json:"name"`
	// Column is the indexed data column, as spelled in the data header.
	Column string `json:"column"`
	// Partitions is the index object count (== data partitions at build).
	Partitions int `json:"partitions"`
	// IndexBytes is the total size of the index objects (planner input).
	IndexBytes int64 `json:"index_bytes"`
	// DataSizes are the byte sizes of the data partition objects the index
	// was built from, in listing order. An index is only valid while the
	// live partitions still have exactly these sizes; a reloaded table
	// fails the check and the engine drops the index instead of serving
	// byte ranges into the wrong rows.
	DataSizes []int64 `json:"data_sizes"`
}

// Stale reports whether the index no longer matches the live data
// partitions (count or any size differs).
func (e Entry) Stale(liveSizes []int64) bool {
	if len(liveSizes) != len(e.DataSizes) {
		return true
	}
	for i, n := range e.DataSizes {
		if liveSizes[i] != n {
			return true
		}
	}
	return false
}

// Manifest is a table's persistent index catalog.
type Manifest struct {
	Version int `json:"version"`
	// Generation counts manifest rewrites (builds and drops), so observers
	// can tell a rebuilt index from the one they saw before.
	Generation uint64 `json:"generation"`
	// Indexes maps lower(column) to its index entry.
	Indexes map[string]Entry `json:"indexes"`
}

// NewManifest returns an empty manifest at the current version.
func NewManifest() *Manifest {
	return &Manifest{Version: ManifestVersion, Indexes: map[string]Entry{}}
}

// Lookup returns the entry indexing column (case-insensitive).
func (m *Manifest) Lookup(column string) (Entry, bool) {
	if m == nil {
		return Entry{}, false
	}
	e, ok := m.Indexes[strings.ToLower(column)]
	return e, ok
}

// Set records an entry (keyed by its column) and bumps the generation.
func (m *Manifest) Set(e Entry) {
	m.Indexes[strings.ToLower(e.Column)] = e
	m.Generation++
}

// Remove drops the entry for column, reporting whether one existed;
// removal bumps the generation.
func (m *Manifest) Remove(column string) bool {
	k := strings.ToLower(column)
	if _, ok := m.Indexes[k]; !ok {
		return false
	}
	delete(m.Indexes, k)
	m.Generation++
	return true
}

// Encode renders the manifest as its stored JSON object.
func (m *Manifest) Encode() []byte {
	data, _ := json.MarshalIndent(m, "", "  ")
	return data
}

// DecodeManifest parses a stored manifest, rejecting unknown versions (a
// newer writer's layout must not be half-read as valid).
func DecodeManifest(data []byte) (*Manifest, error) {
	m := &Manifest{}
	if err := json.Unmarshal(data, m); err != nil {
		return nil, fmt.Errorf("index: bad manifest: %w", err)
	}
	if m.Version != ManifestVersion {
		return nil, fmt.Errorf("index: manifest version %d, want %d", m.Version, ManifestVersion)
	}
	if m.Indexes == nil {
		m.Indexes = map[string]Entry{}
	}
	return m, nil
}

// BuildPartition builds the index rows of one data partition: every data
// row's column value and inclusive byte range, sorted by value (numeric
// values in numeric order, strings lexically — value.Compare's total
// order). Sorting follows the paper's layout; correctness does not depend
// on it because index probes scan the whole index object.
func BuildPartition(data []byte, column string) ([]byte, error) {
	sc := csvx.NewScanner(data)
	if !sc.Scan() {
		return nil, fmt.Errorf("index: empty data partition")
	}
	col := -1
	for i, h := range sc.Fields() {
		if strings.EqualFold(h, column) {
			col = i
			break
		}
	}
	if col < 0 {
		return nil, fmt.Errorf("index: column %q not in header %v", column, sc.Fields())
	}
	type idxRow struct {
		key         value.Value // the cell, parsed once: the sort compares typed values
		val         string
		first, last int64
	}
	var rows []idxRow
	for sc.Scan() {
		var cell string // a short row's missing cell is NULL, as value.CSVCell reads it
		if fields := sc.Fields(); col < len(fields) {
			cell = fields[col]
		}
		first, last := sc.Range()
		rows = append(rows, idxRow{key: value.FromCSV(cell), val: cell, first: first, last: last})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	slices.SortStableFunc(rows, func(a, b idxRow) int { return value.Compare(a.key, b.key) })
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{r.val, strconv.FormatInt(r.first, 10), strconv.FormatInt(r.last, 10)}
	}
	return csvx.Encode(Header, out), nil
}

// ProbeSQL is the S3 Select every index object is probed with: the byte
// ranges of the rows whose indexed value satisfies valuePred, a predicate
// over ValueColumn.
func ProbeSQL(valuePred string) string {
	return "SELECT " + Header[1] + ", " + Header[2] + " FROM S3Object WHERE " + valuePred
}

// ParseRanges decodes the rows a ProbeSQL select returned into inclusive
// byte ranges, in the order returned.
func ParseRanges(rows [][]string) ([][2]int64, error) {
	ranges := make([][2]int64, 0, len(rows))
	for _, r := range rows {
		if len(r) != 2 {
			return nil, fmt.Errorf("index: bad index entry %v", r)
		}
		first, err1 := strconv.ParseInt(r[0], 10, 64)
		last, err2 := strconv.ParseInt(r[1], 10, 64)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("index: bad index entry %v", r)
		}
		ranges = append(ranges, [2]int64{first, last})
	}
	return ranges, nil
}

// Coalesce sorts ranges by start offset and merges ranges that overlap or
// sit within gap bytes of each other, returning the fetch list. Merged
// ranges may cover unselected rows in the gaps; callers re-filter the
// decoded rows, so the merge trades a few extra bytes for fewer ranges.
func Coalesce(ranges [][2]int64, gap int64) [][2]int64 {
	if len(ranges) == 0 {
		return nil
	}
	if gap < 0 {
		gap = 0
	}
	sorted := make([][2]int64, len(ranges))
	copy(sorted, ranges)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i][0] != sorted[j][0] {
			return sorted[i][0] < sorted[j][0]
		}
		return sorted[i][1] < sorted[j][1]
	})
	out := sorted[:1]
	for _, r := range sorted[1:] {
		last := &out[len(out)-1]
		if r[0] <= last[1]+1+gap {
			if r[1] > last[1] {
				last[1] = r[1]
			}
			continue
		}
		out = append(out, r)
	}
	return out
}

// Batches splits coalesced ranges into chunks of at most maxPerReq ranges,
// one chunk per multi-range GET request (maxPerReq <= 0 uses the default).
func Batches(ranges [][2]int64, maxPerReq int) [][][2]int64 {
	if maxPerReq <= 0 {
		maxPerReq = DefaultMaxRangesPerGet
	}
	var out [][][2]int64
	for len(ranges) > 0 {
		n := maxPerReq
		if n > len(ranges) {
			n = len(ranges)
		}
		out = append(out, ranges[:n])
		ranges = ranges[n:]
	}
	return out
}
