package colformat

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"pushdowndb/internal/value"
	"pushdowndb/internal/vec"
)

// The chunk reader as it was before ReadColumn produced typed vectors: a
// fresh inflater and io.ReadAll per chunk, one boxed value.Value per cell
// and one string per text cell. It is the oracle the typed reader is held
// to (exported for the external tests of this directory).

// ReferenceReadColumn decodes chunk (g, col) the old way.
func ReferenceReadColumn(r *Reader, g, col int) ([]value.Value, error) {
	cm := r.meta.RowGroups[g].Chunks[col]
	raw := r.data[cm.Offset : cm.Offset+cm.Len]
	if cm.Compressed {
		dec, err := io.ReadAll(flate.NewReader(bytes.NewReader(raw)))
		if err != nil {
			return nil, fmt.Errorf("colformat: decompress: %w", err)
		}
		raw = dec
	}
	return referenceDecodeChunk(r.meta.Columns[col].Kind, raw)
}

func referenceDecodeChunk(k value.Kind, raw []byte) ([]value.Value, error) {
	if len(raw) < 4 {
		return nil, fmt.Errorf("colformat: chunk too short")
	}
	n := int(binary.LittleEndian.Uint32(raw[:4]))
	bmLen := (n + 7) / 8
	if len(raw) < 4+bmLen {
		return nil, fmt.Errorf("colformat: chunk bitmap truncated")
	}
	bitmap := raw[4 : 4+bmLen]
	body := raw[4+bmLen:]
	out := make([]value.Value, n)
	pos := 0
	for i := 0; i < n; i++ {
		if bitmap[i/8]&(1<<uint(i%8)) != 0 {
			out[i] = value.Null()
			continue
		}
		switch k {
		case value.KindInt, value.KindDate:
			if pos+8 > len(body) {
				return nil, fmt.Errorf("colformat: int chunk truncated")
			}
			x := int64(binary.LittleEndian.Uint64(body[pos : pos+8]))
			pos += 8
			if k == value.KindDate {
				out[i] = value.Date(x)
			} else {
				out[i] = value.Int(x)
			}
		case value.KindFloat:
			if pos+8 > len(body) {
				return nil, fmt.Errorf("colformat: float chunk truncated")
			}
			out[i] = value.Float(math.Float64frombits(binary.LittleEndian.Uint64(body[pos : pos+8])))
			pos += 8
		case value.KindString:
			l, m := binary.Uvarint(body[pos:])
			if m <= 0 || l > uint64(len(body)) || pos+m+int(l) > len(body) {
				return nil, fmt.Errorf("colformat: string chunk truncated")
			}
			pos += m
			out[i] = value.Str(string(body[pos : pos+int(l)]))
			pos += int(l)
		default:
			return nil, fmt.Errorf("colformat: unsupported column kind %s", k)
		}
	}
	return out, nil
}

// DiffReference reports how a decoded chunk differs from the vector
// vec.FromValues lays out for the reference's values — layout (kind, boxed
// or not, null bitmap or none), then cell for cell kind, nullness and
// payload (bitwise, so -0 and NaN count) — or "" when it does not.
func DiffReference(got *vec.Vector, ref []value.Value) string {
	want := vec.FromValues(ref)
	if got.Len() != want.Len() || got.Kind != want.Kind || got.Boxed != nil || (got.Nulls == nil) != (want.Nulls == nil) {
		return fmt.Sprintf("layout: %d rows of %s (nulls %v, boxed %v), reference %d of %s (nulls %v)",
			got.Len(), got.Kind, got.Nulls != nil, got.Boxed != nil, want.Len(), want.Kind, want.Nulls != nil)
	}
	for i := 0; i < want.Len(); i++ {
		if g, w := got.Value(i), want.Value(i); g != w || got.IsNull(i) != want.IsNull(i) {
			return fmt.Sprintf("row %d: %s %q, reference %s %q", i, g.Kind(), g, w.Kind(), w)
		}
	}
	return ""
}
