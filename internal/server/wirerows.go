package server

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"

	"pushdowndb/internal/arena"
	"pushdowndb/internal/engine"
	"pushdowndb/internal/value"
)

// wireRows is a relation's rows as the "rows" member of a query response:
// an array of rows, each an array of cells whose JSON type carries the kind.
//
//	null  true  false       NULL, BOOL
//	-7                      INT: an integer literal
//	0.1  2.0  1e+21         finite FLOAT: strconv 'g' -1, ".0" appended when it has none of ".eE"
//	"fNaN" "f+Inf" "f-Inf"  the FLOATs JSON has no literal for
//	"sx,\"y\""  "d9568"     STRING: 's', then the text; DATE: 'd', then the days since 1970-01-01
//
// Every value.Value decodes to the identical value, a string's bytes
// included: only '"', '\' and controls are escaped, bytes that are not UTF-8
// pass through. Both directions are written by hand because reflection
// allocates per cell; here a body costs O(bytes / chunk) allocations, as a
// select response does (package arena).
type wireRows []engine.Row

// MarshalJSON appends every cell to one buffer, sized first so that it
// seldom grows.
func (rs wireRows) MarshalJSON() ([]byte, error) {
	size := 2 + 2*len(rs)
	for _, row := range rs {
		for _, v := range row {
			size += 10
			if v.Kind() == value.KindString {
				size += len(v.AsString())
			}
		}
	}
	b := append(make([]byte, 0, size), '[')
	for i, row := range rs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for j, v := range row {
			if j > 0 {
				b = append(b, ',')
			}
			b = appendCell(b, v)
		}
		b = append(b, ']')
	}
	return append(b, ']'), nil
}

func appendCell(b []byte, v value.Value) []byte {
	switch v.Kind() {
	case value.KindBool:
		return strconv.AppendBool(b, v.AsBool())
	case value.KindInt:
		return strconv.AppendInt(b, v.AsInt(), 10)
	case value.KindDate:
		return append(strconv.AppendInt(append(b, `"d`...), v.Days(), 10), '"')
	case value.KindFloat:
		f, n := v.AsFloat(), len(b)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return append(strconv.AppendFloat(append(b, `"f`...), f, 'g', -1, 64), '"')
		}
		if b = strconv.AppendFloat(b, f, 'g', -1, 64); bytes.IndexAny(b[n:], ".e") < 0 {
			b = append(b, ".0"...)
		}
		return b
	case value.KindString:
		s, start := v.AsString(), 0
		b = append(b, `"s`...)
		for i := 0; i < len(s); i++ {
			if c := s[i]; c < 0x20 {
				b = fmt.Appendf(append(b, s[start:i]...), `\u%04x`, c)
				start = i + 1
			} else if c == '"' || c == '\\' {
				b = append(append(b, s[start:i]...), '\\', c)
				start = i + 1
			}
		}
		return append(append(b, s[start:]...), '"')
	default:
		return append(b, "null"...)
	}
}

// UnmarshalJSON reads b in one pass. It is strict: what MarshalJSON, then
// encoding/json's escaping, could not have written is an error, white space
// included. What it allocates is bounded by the bytes it has read.
func (rs *wireRows) UnmarshalJSON(b []byte) error {
	d, rows := rowsDecoder{b: b}, wireRows{}
	err := d.list(func() error {
		d.cells = d.cells[:0]
		err := d.list(d.cell)
		row := d.slab.Make(len(d.cells))
		copy(row, d.cells)
		rows = append(rows, row)
		return err
	})
	if err == nil && d.i < len(b) {
		err = d.bad("bytes after the rows")
	}
	if err == nil {
		*rs = rows
	}
	return err
}

// rowsDecoder cuts string cells from text and rows from slab.
type rowsDecoder struct {
	b     []byte
	i     int // the next unread byte of b
	text  arena.Text
	slab  arena.Slab[value.Value]
	cells []value.Value // the row being read
	buf   []byte        // the string being read, once it has held an escape
}

func (d *rowsDecoder) bad(what string) error {
	return fmt.Errorf("server: bad rows at byte %d: %s", d.i, what)
}

// lit consumes word if the unread bytes start with it.
func (d *rowsDecoder) lit(word string) bool {
	ok := d.i < len(d.b) && d.b[d.i] == word[0] && bytes.HasPrefix(d.b[d.i:], []byte(word))
	if ok {
		d.i += len(word)
	}
	return ok
}

// list reads an array, calling elem to read each element.
func (d *rowsDecoder) list(elem func() error) error {
	if !d.lit("[") {
		return d.bad("want [")
	}
	for n := 0; !d.lit("]"); n++ {
		if n > 0 && !d.lit(",") {
			return d.bad("want , or ]")
		}
		if err := elem(); err != nil {
			return err
		}
	}
	return nil
}

// cell reads one cell onto d.cells.
func (d *rowsDecoder) cell() error {
	v, err := value.Null(), error(nil)
	switch {
	case d.lit(`"`):
		v, err = d.str()
	case d.lit("null"):
	case d.lit("true"):
		v = value.Bool(true)
	case d.lit("false"):
		v = value.Bool(false)
	default:
		v, err = d.num()
	}
	d.cells = append(d.cells, v)
	return err
}

// num reads an INT, or a FLOAT when the literal has any of ".eE".
func (d *rowsDecoder) num() (value.Value, error) {
	end := d.i
	for ; end < len(d.b); end++ {
		if c := d.b[end]; c-'0' > 9 && c != '-' && c != '+' && c != '.' && c|0x20 != 'e' {
			break
		}
	}
	tok := d.b[d.i:end]
	v, ok := value.ParseNum(string(tok))
	if !ok || tok[0] == '+' || v.Kind() == value.KindFloat && !bytes.ContainsAny(tok, ".eE") {
		return v, d.bad("want a cell")
	}
	d.i = end
	return v, nil
}

// str reads the rest of a string cell, its opening quote consumed.
func (d *rowsDecoder) str() (value.Value, error) {
	d.buf = d.buf[:0]
	start := d.i
	for d.i < len(d.b) && d.b[d.i] != '"' {
		switch c := d.b[d.i]; {
		case c == '\\':
			r, n := unescape(d.b[d.i:])
			if n == 0 {
				return value.Null(), d.bad("bad escape")
			}
			d.buf = utf8.AppendRune(append(d.buf, d.b[start:d.i]...), r)
			d.i += n
			start = d.i
		case c < 0x20:
			return value.Null(), d.bad("control byte in a string")
		default:
			d.i++
		}
	}
	if d.i == len(d.b) {
		return value.Null(), d.bad("unterminated string")
	}
	s := d.b[start:d.i]
	if len(d.buf) > 0 { // every escape has put at least a byte there
		d.buf = append(d.buf, s...)
		s = d.buf
	}
	d.i++
	switch {
	case len(s) > 0 && s[0] == 's':
		return value.Str(d.text.String(s[1:])), nil
	case len(s) > 0 && s[0] == 'd':
		if days, err := strconv.ParseInt(string(s[1:]), 10, 64); err == nil {
			return value.Date(days), nil
		}
	case string(s) == "fNaN", string(s) == "f+Inf", string(s) == "f-Inf":
		f, _ := strconv.ParseFloat(string(s[1:]), 64)
		return value.Float(f), nil
	}
	return value.Null(), d.bad("mistagged string cell")
}

// unescape decodes the escape sequence b starts with (MarshalJSON writes
// \", \\ and \u00XX; encoding/json adds \uXXXX for <, >, &, U+2028, U+2029)
// and returns its rune and length: 0 when it is malformed or half a pair.
func unescape(b []byte) (rune, int) {
	if len(b) < 2 {
		return 0, 0
	}
	if k := strings.IndexByte(`"\/bfnrt`, b[1]); k >= 0 {
		return rune("\"\\/\b\f\n\r\t"[k]), 2
	}
	r, n := hex4(b), 6
	if utf16.IsSurrogate(r) {
		r, n = utf16.DecodeRune(r, hex4(b[6:])), 12
	}
	if r < 0 || n == 12 && r == utf8.RuneError {
		return 0, 0
	}
	return r, n
}

// hex4 is the XXXX of the \uXXXX b starts with, or -1.
func hex4(b []byte) rune {
	if len(b) >= 6 && b[0] == '\\' && b[1] == 'u' {
		if n, err := strconv.ParseUint(string(b[2:6]), 16, 16); err == nil {
			return rune(n)
		}
	}
	return -1
}
