package csvx

import (
	"fmt"
	"strings"
)

// refScanner is the scanner this package shipped before fields became
// views: one strings.Builder per field, fed a byte at a time. It is kept
// as it was (less a variable it never read) as the oracle the table test
// and FuzzCSVDecode hold Scanner to: identical fields, ranges and error
// text on every input.
type refScanner struct {
	data   []byte
	pos    int64
	fields []string
	first  int64
	last   int64
	err    error
}

func (s *refScanner) Scan() bool {
	if s.err != nil || s.pos >= int64(len(s.data)) {
		return false
	}
	s.fields = s.fields[:0]
	s.first = s.pos
	var field strings.Builder
	inQuotes := false
	fieldHasData := false
	flush := func() {
		s.fields = append(s.fields, field.String())
		field.Reset()
		fieldHasData = false
	}
	for s.pos < int64(len(s.data)) {
		c := s.data[s.pos]
		if inQuotes {
			if c == '"' {
				if s.pos+1 < int64(len(s.data)) && s.data[s.pos+1] == '"' {
					field.WriteByte('"')
					s.pos += 2
					continue
				}
				inQuotes = false
				s.pos++
				continue
			}
			field.WriteByte(c)
			s.pos++
			continue
		}
		switch c {
		case '"':
			if !fieldHasData {
				inQuotes = true
				fieldHasData = true
			} else {
				field.WriteByte(c)
			}
			s.pos++
		case ',':
			flush()
			s.pos++
		case '\r':
			s.pos++
		case '\n':
			s.last = s.pos - 1
			if s.last >= 1 && s.data[s.last] == '\r' {
				s.last--
			}
			s.pos++
			flush()
			return true
		default:
			field.WriteByte(c)
			fieldHasData = true
			s.pos++
		}
	}
	if inQuotes {
		s.err = fmt.Errorf("csvx: unterminated quoted field at offset %d", s.first)
		return false
	}
	// Final row without trailing newline.
	s.last = int64(len(s.data)) - 1
	flush()
	return true
}

func (s *refScanner) Fields() []string      { return s.fields }
func (s *refScanner) Range() (int64, int64) { return s.first, s.last }
func (s *refScanner) Err() error            { return s.err }

// scanTrace renders everything a scan reports — each row's fields and
// range, then the error — so two scanners compare with one string.
func scanTrace(s interface {
	Scan() bool
	Fields() []string
	Range() (int64, int64)
	Err() error
}) string {
	var b strings.Builder
	for s.Scan() {
		first, last := s.Range()
		fmt.Fprintf(&b, "%q [%d,%d]\n", s.Fields(), first, last)
	}
	fmt.Fprintf(&b, "err=%v", s.Err())
	return b.String()
}

func refTrace(data []byte) string { return scanTrace(&refScanner{data: data}) }
func gotTrace(data []byte) string { return scanTrace(NewScanner(data)) }
