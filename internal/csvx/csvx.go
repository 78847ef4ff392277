// Package csvx implements CSV encoding and decoding with exact byte-offset
// tracking. PushdownDB's index tables (Section IV-A of the paper) store the
// first and last byte offset of every data row so that individual rows can
// be fetched with ranged GET requests; the standard library csv package
// does not expose offsets, hence this implementation.
//
// The dialect is RFC-4180-ish: comma separator, \n row terminator, fields
// containing comma, quote or newline are double-quoted with "" escaping.
package csvx

import (
	"fmt"
	"io"
	"strings"
	"unsafe"
)

// Writer encodes rows and tracks the byte offset of each.
type Writer struct {
	w   io.Writer
	off int64
	buf []byte
}

// NewWriter returns a Writer emitting to w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// WriteRow writes one row and returns the inclusive byte range [first, last]
// of the row's bytes excluding the trailing newline, matching the paper's
// |value|first_byte_offset|last_byte_offset| index-table convention.
func (w *Writer) WriteRow(fields []string) (first, last int64, err error) {
	w.buf = w.buf[:0]
	for i, f := range fields {
		if i > 0 {
			w.buf = append(w.buf, ',')
		}
		w.buf = appendField(w.buf, f)
	}
	rowLen := int64(len(w.buf))
	w.buf = append(w.buf, '\n')
	if _, err := w.w.Write(w.buf); err != nil {
		return 0, 0, err
	}
	first = w.off
	last = w.off + rowLen - 1
	w.off += rowLen + 1
	return first, last, nil
}

func appendField(buf []byte, f string) []byte {
	if !strings.ContainsAny(f, ",\"\n\r") {
		return append(buf, f...)
	}
	buf = append(buf, '"')
	for i := 0; i < len(f); i++ {
		if f[i] == '"' {
			buf = append(buf, '"', '"')
		} else {
			buf = append(buf, f[i])
		}
	}
	return append(buf, '"')
}

// Encode renders rows (with optional header) to a byte slice.
func Encode(header []string, rows [][]string) []byte {
	var sb strings.Builder
	w := NewWriter(&sb)
	if header != nil {
		_, _, _ = w.WriteRow(header)
	}
	for _, r := range rows {
		_, _, _ = w.WriteRow(r)
	}
	return []byte(sb.String())
}

// Scanner iterates rows of CSV data, reporting each row's byte range.
//
// Fields are views, not copies: a field whose text appears verbatim in the
// payload (every field of a row without quotes or carriage returns, and a
// quoted field without "" escapes) is a string header over those payload
// bytes; the rest are unescaped into a buffer the scanner appends to and
// never rewrites. A field therefore stays valid for as long as the payload
// is left unmodified, and keeps the whole payload reachable for as long as
// it is held: anything that outlives the request must copy (CloneRow).
type Scanner struct {
	data   []byte
	pos    int
	fields []string
	first  int
	last   int
	err    error

	// The field being assembled by scanQuoted: data[lo:hi] while its text
	// is one contiguous run of the payload, buf once it is not.
	lo, hi int
	copied bool
	buf    []byte
}

// NewScanner returns a scanner over data, which must not be modified
// while any field of any row is still in use.
func NewScanner(data []byte) *Scanner { return &Scanner{data: data} }

// view returns b as a string without copying. It is the package's one
// unsafe site and relies on the contract NewScanner states: the payload is
// immutable (store.Put forbids mutating a stored object, and every other
// caller scans a buffer it owns and does not write to), and the scanner
// only appends to buf, so the bytes under a returned string never change.
func view(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// Scan advances to the next row, returning false at end of input or error.
func (s *Scanner) Scan() bool {
	if s.err != nil || s.pos >= len(s.data) {
		return false
	}
	s.fields = s.fields[:0]
	s.first = s.pos
	// Rows without quotes or carriage returns, the common case, are split
	// by index alone.
	data, start := s.data, s.pos
	for i := s.pos; i < len(data); i++ {
		switch data[i] {
		case ',':
			s.fields = append(s.fields, view(data[start:i]))
			start = i + 1
		case '\n':
			s.fields = append(s.fields, view(data[start:i]))
			s.endRow(i)
			return true
		case '"', '\r':
			return s.scanQuoted()
		}
	}
	// Final row without trailing newline.
	s.fields = append(s.fields, view(data[start:]))
	s.pos = len(data)
	s.last = len(data) - 1
	return true
}

// endRow records the row terminated by the newline at nl.
func (s *Scanner) endRow(nl int) {
	s.last = nl - 1
	if s.last >= 1 && s.data[s.last] == '\r' {
		s.last--
	}
	s.pos = nl + 1
}

// scanQuoted rescans the current row with the full dialect: quoted fields,
// "" escapes, and carriage returns, which are dropped outside quotes.
func (s *Scanner) scanQuoted() bool {
	s.fields = s.fields[:0]
	data := s.data
	inQuotes := false
	fieldHasData := false
	for i := s.first; i < len(data); i++ {
		c := data[i]
		if inQuotes {
			if c != '"' {
				s.emit(i)
			} else if i+1 < len(data) && data[i+1] == '"' {
				i++
				s.emit(i)
			} else {
				inQuotes = false
			}
			continue
		}
		switch c {
		case '"':
			if !fieldHasData {
				inQuotes = true
				fieldHasData = true
			} else {
				s.emit(i)
			}
		case ',':
			s.flush()
			fieldHasData = false
		case '\r':
		case '\n':
			s.flush()
			s.endRow(i)
			return true
		default:
			s.emit(i)
			fieldHasData = true
		}
	}
	s.pos = len(data)
	if inQuotes {
		s.err = fmt.Errorf("csvx: unterminated quoted field at offset %d", s.first)
		return false
	}
	// Final row without trailing newline.
	s.last = len(data) - 1
	s.flush()
	return true
}

// unescapeChunk is the least capacity scanQuoted allocates for unescaped
// fields, so a payload full of them costs an allocation per few dozen
// fields rather than one each.
const unescapeChunk = 4096

// emit appends the payload byte at p to the field being assembled.
func (s *Scanner) emit(p int) {
	switch {
	case s.copied:
		s.buf = append(s.buf, s.data[p])
	case s.lo == s.hi:
		s.lo, s.hi = p, p+1
	case p == s.hi:
		s.hi++
	default:
		// First gap (an escape, a dropped CR, text after a closing quote):
		// continue in buf, past every field already handed out.
		run := s.data[s.lo:s.hi]
		if cap(s.buf)-len(s.buf) <= len(run) {
			s.buf = make([]byte, 0, max(unescapeChunk, 2*len(run)))
		}
		s.buf = append(append(s.buf[len(s.buf):], run...), s.data[p])
		s.copied = true
	}
}

// flush ends the field being assembled.
func (s *Scanner) flush() {
	if s.copied {
		s.fields = append(s.fields, view(s.buf))
	} else {
		s.fields = append(s.fields, view(s.data[s.lo:s.hi]))
	}
	s.lo, s.hi, s.copied = 0, 0, false
}

// Fields returns the current row's fields. The slice is reused by the next
// Scan; the strings in it are views (see Scanner).
func (s *Scanner) Fields() []string { return s.fields }

// Range returns the inclusive byte range of the current row (newline
// excluded).
func (s *Scanner) Range() (first, last int64) { return int64(s.first), int64(s.last) }

// Err reports a scan error, if any.
func (s *Scanner) Err() error { return s.err }

// CloneRow copies fields into a row that owns its bytes: the strings share
// one fresh allocation, so the row pins nothing but itself.
func CloneRow(fields []string) []string {
	n := 0
	for _, f := range fields {
		n += len(f)
	}
	var b strings.Builder
	b.Grow(n)
	for _, f := range fields {
		b.WriteString(f)
	}
	all := b.String()
	row := make([]string, len(fields))
	for i, f := range fields {
		row[i], all = all[:len(f)], all[len(f):]
	}
	return row
}

// Decode parses all rows into strings that own their bytes. If hasHeader,
// the first row is returned separately.
func Decode(data []byte, hasHeader bool) (header []string, rows [][]string, err error) {
	sc := NewScanner(data)
	for sc.Scan() {
		row := CloneRow(sc.Fields())
		if hasHeader && header == nil {
			header = row
			continue
		}
		rows = append(rows, row)
	}
	return header, rows, sc.Err()
}

// RowRanges parses data and returns the byte range of every data row
// (skipping the header when hasHeader). Index-table construction uses this.
func RowRanges(data []byte, hasHeader bool) ([][2]int64, error) {
	sc := NewScanner(data)
	var out [][2]int64
	first := true
	for sc.Scan() {
		if hasHeader && first {
			first = false
			continue
		}
		first = false
		a, b := sc.Range()
		out = append(out, [2]int64{a, b})
	}
	return out, sc.Err()
}
