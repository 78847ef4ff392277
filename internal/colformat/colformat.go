// Package colformat implements the columnar object format PushdownDB uses
// as its Parquet stand-in (Section IX of the paper). Objects contain row
// groups; each row group stores one chunk per column with a null bitmap,
// optional flate compression (the stdlib substitute for Parquet's Snappy)
// and per-chunk min/max statistics. A JSON footer at the object tail
// (Parquet-style) indexes the chunks, so a reader touches only the bytes of
// the columns a query references — the property that drives the paper's
// Fig. 11 CSV-vs-Parquet comparison.
//
// A scan decodes each column's row groups into one vector (ReadColumn's
// dst), valid until the next ReadColumn into it: what outlives that holds
// copied numbers, or strings that view a chunk's own text, which each string
// chunk allocates afresh and nothing ever reuses or rewrites.
package colformat

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/bits"
	"strings"
	"sync"

	"pushdowndb/internal/value"
	"pushdowndb/internal/vec"
)

// Magic trails every object.
const Magic = "PCOL1"

// ColumnDef declares one column of the schema.
type ColumnDef struct {
	Name string     `json:"name"`
	Kind value.Kind `json:"kind"`
}

// Schema is the ordered column list.
type Schema []ColumnDef

// Names returns the column names in order.
func (s Schema) Names() []string {
	names := make([]string, len(s))
	for i, c := range s {
		names[i] = c.Name
	}
	return names
}

// chunkMeta locates one column chunk within the object.
type chunkMeta struct {
	Offset     int64  `json:"offset"`
	Len        int64  `json:"len"`
	RawLen     int64  `json:"raw_len"`
	Compressed bool   `json:"compressed"`
	Min        string `json:"min,omitempty"`
	Max        string `json:"max,omitempty"`
	HasStats   bool   `json:"has_stats"`
}

type groupMeta struct {
	NumRows int         `json:"num_rows"`
	Chunks  []chunkMeta `json:"chunks"`
}

type footer struct {
	Version   int         `json:"version"`
	NumRows   int64       `json:"num_rows"`
	Columns   Schema      `json:"columns"`
	RowGroups []groupMeta `json:"row_groups"`
}

// Writer builds a columnar object in memory.
type Writer struct {
	schema    Schema
	groupRows int
	compress  bool

	buf     bytes.Buffer
	meta    footer
	pending [][]value.Value // column-major buffer for the open row group
	nRows   int

	// One compressor, Reset per chunk (same bytes as a fresh one): a new
	// flate.Writer is ~650 KB, which per chunk dwarfed the rest of a load.
	deflated bytes.Buffer
	deflater *flate.Writer
}

// NewWriter returns a writer with the given schema, rows-per-row-group and
// compression setting. groupRows <= 0 defaults to 64k rows.
func NewWriter(schema Schema, groupRows int, compress bool) *Writer {
	if groupRows <= 0 {
		groupRows = 1 << 16
	}
	w := &Writer{schema: schema, groupRows: groupRows, compress: compress}
	if compress {
		w.deflater, _ = flate.NewWriter(&w.deflated, flate.BestSpeed) // fails only on a bad level
	}
	w.meta.Version = 1
	w.meta.Columns = schema
	w.pending = make([][]value.Value, len(schema))
	return w
}

// Append adds one row. Values must match the schema kinds (NULL always
// allowed; INT is accepted into FLOAT columns).
func (w *Writer) Append(row []value.Value) error {
	if len(row) != len(w.schema) {
		return fmt.Errorf("colformat: row has %d values, schema has %d", len(row), len(w.schema))
	}
	for i, v := range row {
		cv, err := coerce(v, w.schema[i].Kind)
		if err != nil {
			return fmt.Errorf("colformat: column %s: %w", w.schema[i].Name, err)
		}
		w.pending[i] = append(w.pending[i], cv)
	}
	w.nRows++
	if len(w.pending) > 0 && len(w.pending[0]) >= w.groupRows {
		return w.flushGroup()
	}
	return nil
}

func coerce(v value.Value, k value.Kind) (value.Value, error) {
	if v.IsNull() || v.Kind() == k {
		return v, nil
	}
	switch k {
	case value.KindFloat:
		return value.CastFloat(v)
	case value.KindInt:
		if v.Kind() == value.KindDate {
			return value.Int(v.Days()), nil
		}
		return value.CastInt(v)
	case value.KindString:
		return value.CastString(v), nil
	case value.KindDate:
		return value.CastDate(v)
	}
	return value.Null(), fmt.Errorf("cannot store %s into %s column", v.Kind(), k)
}

func (w *Writer) flushGroup() error {
	if len(w.pending) == 0 {
		// Zero-column schema: rows are counted (NumRows) but there is
		// nothing to chunk. Without this guard both Append and Finish
		// panicked indexing pending[0].
		return nil
	}
	n := len(w.pending[0])
	if n == 0 {
		return nil
	}
	g := groupMeta{NumRows: n}
	for ci, col := range w.pending {
		raw := encodeChunk(w.schema[ci].Kind, col)
		payload := raw
		compressed := false
		if w.compress {
			w.deflated.Reset()
			w.deflater.Reset(&w.deflated)
			if _, err := w.deflater.Write(raw); err != nil {
				return err
			}
			if err := w.deflater.Close(); err != nil {
				return err
			}
			if w.deflated.Len() < len(raw) {
				payload = w.deflated.Bytes()
				compressed = true
			}
		}
		cm := chunkMeta{
			Offset:     int64(w.buf.Len()),
			Len:        int64(len(payload)),
			RawLen:     int64(len(raw)),
			Compressed: compressed,
		}
		if mn, mx, ok := stats(col); ok {
			cm.Min, cm.Max, cm.HasStats = mn.String(), mx.String(), true
		}
		w.buf.Write(payload)
		g.Chunks = append(g.Chunks, cm)
	}
	w.meta.RowGroups = append(w.meta.RowGroups, g)
	for i := range w.pending {
		w.pending[i] = w.pending[i][:0]
	}
	return nil
}

func stats(col []value.Value) (mn, mx value.Value, ok bool) {
	for _, v := range col {
		if v.IsNull() {
			continue
		}
		if !ok {
			mn, mx, ok = v, v, true
			continue
		}
		if value.Compare(v, mn) < 0 {
			mn = v
		}
		if value.Compare(v, mx) > 0 {
			mx = v
		}
	}
	return mn, mx, ok
}

// Finish flushes the open row group and appends footer + magic, returning
// the complete object payload.
func (w *Writer) Finish() ([]byte, error) {
	if err := w.flushGroup(); err != nil {
		return nil, err
	}
	w.meta.NumRows = int64(w.nRows)
	fj, err := json.Marshal(&w.meta)
	if err != nil {
		return nil, err
	}
	w.buf.Write(fj)
	var lenBuf [8]byte
	binary.LittleEndian.PutUint64(lenBuf[:], uint64(len(fj)))
	w.buf.Write(lenBuf[:])
	w.buf.WriteString(Magic)
	return w.buf.Bytes(), nil
}

// encodeChunk serializes one column: null bitmap then kind-specific values.
func encodeChunk(k value.Kind, col []value.Value) []byte {
	n := len(col)
	bitmap := make([]byte, (n+7)/8)
	var body bytes.Buffer
	for i, v := range col {
		if v.IsNull() {
			bitmap[i/8] |= 1 << uint(i%8)
			continue
		}
		switch k {
		case value.KindInt, value.KindDate:
			var b [8]byte
			var x int64
			if v.Kind() == value.KindDate {
				x = v.Days()
			} else {
				x = v.AsInt()
			}
			binary.LittleEndian.PutUint64(b[:], uint64(x))
			body.Write(b[:])
		case value.KindFloat:
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v.AsFloat()))
			body.Write(b[:])
		case value.KindString:
			s := v.AsString()
			var lb [binary.MaxVarintLen64]byte
			m := binary.PutUvarint(lb[:], uint64(len(s)))
			body.Write(lb[:m])
			body.WriteString(s)
		}
	}
	out := make([]byte, 0, 4+len(bitmap)+body.Len())
	var nb [4]byte
	binary.LittleEndian.PutUint32(nb[:], uint32(n))
	out = append(out, nb[:]...)
	out = append(out, bitmap...)
	out = append(out, body.Bytes()...)
	return out
}

// chunkReader streams a chunk's raw bytes, inflated or stored, through a 4 KB
// window: no raw_len buffer exists, nor is a byte past raw_len + 1 inflated.
// Pooled with its flate reader (~40 KB of tables): the one pool on the path.
type chunkReader struct {
	stored bytes.Reader
	flate  io.ReadCloser    // reads stored
	limit  io.LimitedReader // reads stored or flate, to one byte past raw_len
	raw    *bufio.Reader    // reads limit
}

var chunkReaders = sync.Pool{New: func() any {
	c := &chunkReader{}
	c.flate, c.raw = flate.NewReader(&c.stored), bufio.NewReaderSize(&c.limit, 4<<10)
	return c
}}

// decode decodes a rows-row chunk into dst (see ReadColumn): numbers into the
// payload, strings cut from one string of its body; Open bounded every size.
func (c *chunkReader) decode(stored []byte, cm chunkMeta, k value.Kind, rows int, dst *vec.Vector) (*vec.Vector, error) {
	c.stored.Reset(stored)
	c.limit = io.LimitedReader{R: &c.stored, N: cm.Len + 1}
	if cm.Compressed {
		if err := c.flate.(flate.Resetter).Reset(&c.stored, nil); err != nil {
			return nil, err
		}
		c.limit = io.LimitedReader{R: c.flate, N: cm.RawLen + 1}
	}
	c.raw.Reset(&c.limit)
	body := c.limit.N - 1
	if hdr, err := c.raw.Peek(4); err != nil || int(binary.LittleEndian.Uint32(hdr)) != rows {
		return nil, fmt.Errorf("does not hold its row group's %d rows (%v)", rows, err)
	}
	_, _ = c.raw.Discard(4) // cannot fail: Peek buffered it
	body -= 4 + int64(rows+7)/8
	out, live := vec.Over(dst, k, rows), rows
	for i := 0; i < rows; i += 8 {
		b, err := c.raw.ReadByte()
		if err != nil {
			return nil, err
		}
		for ; b != 0; b &= b - 1 { // each set bit, lowest first
			if j := i + bits.TrailingZeros8(b); j < rows {
				out.SetNull(j)
				live--
			}
		}
	}
	switch {
	case live == 0:
		out = vec.Over(out, value.KindNull, rows)
	case k == value.KindInt || k == value.KindDate || k == value.KindFloat:
		for i, left := 0, live; left > 0; {
			win, err := c.raw.Peek(8 * min(left, c.raw.Size()/8))
			if err != nil {
				return nil, err
			}
			left -= len(win) / 8
			for cells := win; len(cells) > 0; i++ {
				if out.IsNull(i) {
					continue
				}
				if x := binary.LittleEndian.Uint64(cells); k == value.KindFloat {
					out.Floats[i] = math.Float64frombits(x)
				} else {
					out.Ints[i] = int64(x)
				}
				cells = cells[8:]
			}
			_, _ = c.raw.Discard(len(win)) // cannot fail: Peek buffered it
		}
		body -= 8 * int64(live)
	case k == value.KindString:
		var sb strings.Builder
		sb.Grow(int(body) + 1) // room for a byte past raw_len, refused below
		if _, err := io.Copy(&sb, c.raw); err != nil {
			return nil, err
		}
		text, pos := sb.String(), 0
		for i := 0; i < rows; i++ {
			if out.IsNull(i) {
				continue
			}
			l, m := binary.Uvarint([]byte(text[pos:min(pos+binary.MaxVarintLen64, len(text))]))
			if m <= 0 || l > uint64(len(text)-pos-m) {
				return nil, fmt.Errorf("string chunk truncated")
			}
			out.Strs[i] = text[pos+m : pos+m+int(l)]
			pos += m + int(l)
		}
		body -= int64(len(text))
	default:
		return nil, fmt.Errorf("unsupported column kind %s", k)
	}
	// raw_len is the chunk's exact size: the stream must end there.
	n, err := c.raw.Discard(int(body))
	if _, end := c.raw.ReadByte(); err != nil || end != io.EOF {
		return nil, fmt.Errorf("stream does not end at raw_len: %d bytes after the cells, footer says %d (%v, %v)", n, body, err, end)
	}
	return out, nil
}

// Reader decodes a columnar object.
type Reader struct {
	data []byte
	meta footer
}

// Open parses the footer of a columnar object.
func Open(data []byte) (*Reader, error) {
	tail := len(Magic) + 8
	if len(data) < tail {
		return nil, fmt.Errorf("colformat: object too small")
	}
	if string(data[len(data)-len(Magic):]) != Magic {
		return nil, fmt.Errorf("colformat: bad magic")
	}
	fl := binary.LittleEndian.Uint64(data[len(data)-tail : len(data)-len(Magic)])
	if fl > uint64(len(data)-tail) {
		return nil, fmt.Errorf("colformat: bad footer length %d", fl)
	}
	fStart := int64(len(data)-tail) - int64(fl)
	r := &Reader{data: data}
	if err := json.Unmarshal(data[fStart:int64(len(data)-tail)], &r.meta); err != nil {
		return nil, fmt.Errorf("colformat: footer: %w", err)
	}
	if err := r.meta.validate(fStart); err != nil {
		return nil, err
	}
	return r, nil
}

// validate checks, once, everything the accessors and ReadColumn index,
// loop over or size an allocation by, so a footer that lies about its
// object is an error from Open, not a panic, a hang or a huge allocation
// later: a chunk per column in every group, each inside the data region,
// within deflate's reach (1032:1) of its raw size and large enough for the
// group's null bitmap (which bounds row counts by bytes present), and group
// rows adding up to the object's (a column-less object has none to count).
func (f *footer) validate(dataEnd int64) error {
	var rows int64
	for g, gm := range f.RowGroups {
		if gm.NumRows < 0 || len(gm.Chunks) != len(f.Columns) || len(gm.Chunks) == 0 {
			return fmt.Errorf("colformat: row group %d: %d rows in %d chunks under %d columns", g, gm.NumRows, len(gm.Chunks), len(f.Columns))
		}
		for c, cm := range gm.Chunks {
			end, raw := cm.Offset+cm.Len, cm.Len
			if cm.Compressed {
				raw = cm.RawLen
			}
			if cm.Offset < 0 || cm.Len < 0 || end < cm.Offset || end > dataEnd ||
				raw < 4+(int64(gm.NumRows)+7)/8 || raw > 1032*cm.Len+64 {
				return fmt.Errorf("colformat: chunk (%d,%d): range [%d,%d), %d raw bytes for %d rows", g, c, cm.Offset, end, raw, gm.NumRows)
			}
		}
		rows += int64(gm.NumRows)
	}
	if len(f.Columns) > 0 && rows != f.NumRows {
		return fmt.Errorf("colformat: row groups hold %d rows, footer says %d", rows, f.NumRows)
	}
	return nil
}

// IsColumnar reports whether data looks like a colformat object.
func IsColumnar(data []byte) bool {
	return len(data) >= len(Magic) && string(data[len(data)-len(Magic):]) == Magic
}

// Schema returns the column definitions.
func (r *Reader) Schema() Schema { return r.meta.Columns }

// NumRows returns the total row count.
func (r *Reader) NumRows() int64 { return r.meta.NumRows }

// NumRowGroups returns the row-group count.
func (r *Reader) NumRowGroups() int { return len(r.meta.RowGroups) }

// GroupRows returns the row count of group g.
func (r *Reader) GroupRows(g int) int { return r.meta.RowGroups[g].NumRows }

// ChunkRawLen returns the uncompressed size of chunk (g, col) when the
// chunk is stored compressed, and 0 for stored-raw chunks (no inflate
// work needed).
func (r *Reader) ChunkRawLen(g, col int) int64 {
	cm := r.meta.RowGroups[g].Chunks[col]
	if !cm.Compressed {
		return 0
	}
	return cm.RawLen
}

// ChunkStats returns the min/max statistics of chunk (g, col). ok is false
// when the chunk is all NULL.
func (r *Reader) ChunkStats(g, col int) (mn, mx value.Value, ok bool) {
	cm := r.meta.RowGroups[g].Chunks[col]
	if !cm.HasStats {
		return value.Null(), value.Null(), false
	}
	k := r.meta.Columns[col].Kind
	return parseStat(cm.Min, k), parseStat(cm.Max, k), true
}

func parseStat(s string, k value.Kind) value.Value {
	switch k {
	case value.KindInt:
		v, err := value.CastInt(value.Str(s))
		if err == nil {
			return v
		}
	case value.KindFloat:
		v, err := value.CastFloat(value.Str(s))
		if err == nil {
			return v
		}
	case value.KindDate:
		v, err := value.ParseDate(s)
		if err == nil {
			return v
		}
	}
	return value.Str(s)
}

// ReadColumn decodes chunk (g, col) into a typed vector, returning it and
// the number of object bytes that had to be read (the compressed chunk size
// — this is the "bytes scanned" a column-pruning scan pays). Given a dst, it
// decodes into dst's payload where it has room (vec.Over) and returns dst,
// undefined after an error; with none, or a nil one, it allocates.
func (r *Reader) ReadColumn(g, col int, dst ...*vec.Vector) (*vec.Vector, int64, error) {
	if g < 0 || g >= len(r.meta.RowGroups) || col < 0 || col >= len(r.meta.Columns) {
		return nil, 0, fmt.Errorf("colformat: chunk (%d,%d) out of range", g, col)
	}
	gm := r.meta.RowGroups[g]
	cm := gm.Chunks[col]
	var into *vec.Vector
	if len(dst) > 0 {
		into = dst[0]
	}
	c := chunkReaders.Get().(*chunkReader)
	defer chunkReaders.Put(c)
	v, err := c.decode(r.data[cm.Offset:cm.Offset+cm.Len], cm, r.meta.Columns[col].Kind, gm.NumRows, into)
	if err != nil {
		return nil, 0, fmt.Errorf("colformat: chunk (%d,%d): %v", g, col, err)
	}
	return v, cm.Len, nil
}

// Encode is a convenience that writes an entire row-major table.
func Encode(schema Schema, rows [][]value.Value, groupRows int, compress bool) ([]byte, error) {
	w := NewWriter(schema, groupRows, compress)
	for _, r := range rows {
		if err := w.Append(r); err != nil {
			return nil, err
		}
	}
	return w.Finish()
}
