// Package value defines the SQL value model shared by the S3 Select engine
// and the PushdownDB executor: a compact tagged union over the types the
// S3 Select dialect knows about (NULL, BOOL, INT, FLOAT, STRING, DATE),
// together with coercion, comparison and hashing rules.
//
// Dates are stored as days since 1970-01-01 and formatted as YYYY-MM-DD,
// which matches how TPC-H data is laid out in CSV and how the paper's
// queries compare order dates.
package value

import (
	"cmp"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Kind enumerates the runtime type of a Value.
type Kind uint8

// The supported value kinds.
const (
	KindNull Kind = iota
	KindBool
	KindInt
	KindFloat
	KindString
	KindDate
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindBool:
		return "BOOL"
	case KindInt:
		return "INT"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "STRING"
	case KindDate:
		return "DATE"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is a single SQL value. The zero Value is NULL.
type Value struct {
	kind Kind
	i    int64  // BOOL (0/1), INT, DATE (days since epoch); FLOAT as its IEEE bits (see float)
	s    string // STRING
}

// Null returns the NULL value.
func Null() Value { return Value{} }

// Bool wraps a boolean.
func Bool(b bool) Value {
	v := Value{kind: KindBool}
	if b {
		v.i = 1
	}
	return v
}

// Int wraps an integer.
func Int(i int64) Value { return Value{kind: KindInt, i: i} }

// Float wraps a float.
func Float(f float64) Value { return Value{kind: KindFloat, i: int64(math.Float64bits(f))} }

// float is the FLOAT payload: an INT and a FLOAT are never live in one
// Value, so they share a word — 32 bytes a cell, in every row, not 40.
func (v Value) float() float64 { return math.Float64frombits(uint64(v.i)) }

// Str wraps a string.
func Str(s string) Value { return Value{kind: KindString, s: s} }

// Date wraps a date expressed as days since 1970-01-01.
func Date(days int64) Value { return Value{kind: KindDate, i: days} }

// DateFromYMD builds a date value from a calendar day.
func DateFromYMD(year int, month time.Month, day int) Value {
	t := time.Date(year, month, day, 0, 0, 0, 0, time.UTC)
	return Date(t.Unix() / 86400)
}

// Kind reports the runtime type.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// AsBool returns the boolean payload. It panics unless Kind is BOOL.
func (v Value) AsBool() bool {
	if v.kind != KindBool {
		panic("value: AsBool on " + v.kind.String())
	}
	return v.i != 0
}

// AsInt returns the integer payload. It panics unless Kind is INT or DATE.
func (v Value) AsInt() int64 {
	if v.kind != KindInt && v.kind != KindDate {
		panic("value: AsInt on " + v.kind.String())
	}
	return v.i
}

// AsFloat returns the float payload. It panics unless Kind is FLOAT.
func (v Value) AsFloat() float64 {
	if v.kind != KindFloat {
		panic("value: AsFloat on " + v.kind.String())
	}
	return v.float()
}

// AsString returns the string payload. It panics unless Kind is STRING.
func (v Value) AsString() string {
	if v.kind != KindString {
		panic("value: AsString on " + v.kind.String())
	}
	return v.s
}

// Days returns the date payload in days since epoch. It panics unless Kind is DATE.
func (v Value) Days() int64 {
	if v.kind != KindDate {
		panic("value: Days on " + v.kind.String())
	}
	return v.i
}

// Num returns the value as a float64 for arithmetic, coercing INT and DATE.
// NULL and non-numeric kinds return (0, false).
func (v Value) Num() (float64, bool) {
	switch v.kind {
	case KindInt, KindDate:
		return float64(v.i), true
	case KindFloat:
		return v.float(), true
	case KindBool:
		return float64(v.i), true
	default:
		return 0, false
	}
}

// IntNum returns the value as an int64, coercing FLOAT by truncation.
func (v Value) IntNum() (int64, bool) {
	switch v.kind {
	case KindInt, KindDate, KindBool:
		return v.i, true
	case KindFloat:
		return int64(v.float()), true
	default:
		return 0, false
	}
}

// String renders the value the way S3 Select renders CSV results: NULL as
// the empty string, floats with minimal digits, dates as YYYY-MM-DD.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return ""
	case KindBool:
		if v.i != 0 {
			return "true"
		}
		return "false"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.float(), 'f', -1, 64)
	case KindString:
		return v.s
	case KindDate:
		return FormatDays(v.i)
	default:
		return ""
	}
}

// Append appends the text String returns to buf, without the intermediate
// string.
func (v Value) Append(buf []byte) []byte {
	switch v.kind {
	case KindBool:
		if v.i != 0 {
			return append(buf, "true"...)
		}
		return append(buf, "false"...)
	case KindInt:
		return strconv.AppendInt(buf, v.i, 10)
	case KindFloat:
		return strconv.AppendFloat(buf, v.float(), 'f', -1, 64)
	case KindString:
		return append(buf, v.s...)
	case KindDate:
		return appendDays(buf, v.i)
	default:
		return buf
	}
}

// FormatDays renders days-since-epoch as YYYY-MM-DD.
func FormatDays(days int64) string {
	var buf [24]byte
	return string(appendDays(buf[:0], days))
}

// appendDays appends days-since-epoch as YYYY-MM-DD in the proleptic
// Gregorian calendar, by arithmetic for every int64 (H. Hinnant's
// civil_from_days, in 400-year eras from 0000-03-01). The year is written as
// the time package writes it: at least four digits, zero-padded, a minus
// sign before a year before 0000.
func appendDays(buf []byte, days int64) []byte {
	q, r := days/146097, days%146097
	if r < 0 {
		q, r = q-1, r+146097
	}
	era, doe := q+4, r+135080 // 1970-01-01 is day 135080 of the era from 1600-03-01, four eras after 0000-03-01
	if doe >= 146097 {
		era, doe = era+1, doe-146097
	}
	yoe := (doe - doe/1460 + doe/36524 - doe/146096) / 365
	doy := doe - (365*yoe + yoe/4 - yoe/100) // from March 1st
	mp := (5*doy + 2) / 153                  // March is 0
	d, m, y := doy-(153*mp+2)/5+1, mp+3, era*400+yoe
	if m > 12 {
		m, y = m-12, y+1
	}
	if y < 0 {
		buf, y = append(buf, '-'), -y
	}
	if y < 10000 {
		buf = append(buf, byte('0'+y/1000), byte('0'+y/100%10), byte('0'+y/10%10), byte('0'+y%10))
	} else {
		buf = strconv.AppendInt(buf, y, 10)
	}
	return append(buf, '-', byte('0'+m/10), byte('0'+m%10), '-', byte('0'+d/10), byte('0'+d%10))
}

// FourDigitYear reports whether days renders with a four-digit year, 0001-01-01
// to 9999-12-31: among such days, YYYY-MM-DD text sorts chronologically.
func FourDigitYear(days int64) bool { return days >= -719162 && days <= 2932896 }

// ParseDate parses the text FormatDays writes — YYYY-MM-DD, and outside
// years 0000-9999 a longer year or a negative one — into a DATE value.
func ParseDate(s string) (Value, error) {
	if d, ok := parseDays(s); ok {
		return Date(d), nil
	}
	return Null(), fmt.Errorf("value: bad date %q", s)
}

// parseDays reads back a day number from the text FormatDays writes and
// from nothing else: [-]YYYY-MM-DD in ASCII digits, the year at least four
// digits, with no zero ahead of a fifth, never -0000, the day one its month
// has, and the day number an int64.
func parseDays(s string) (int64, bool) {
	if !LooksLikeDate(s) {
		return 0, false
	}
	n := len(s)
	plain := n == 10 // a four-digit year: YYYY-MM-DD
	y := int64(s[0]-'0')*1000 + int64(s[1]-'0')*100 + int64(s[2]-'0')*10 + int64(s[3]-'0')
	if !plain {
		var err error
		if y, err = strconv.ParseInt(s[:n-6], 10, 64); err != nil {
			return 0, false
		}
	}
	m := int64(s[n-5]-'0')*10 + int64(s[n-4]-'0')
	d := int64(s[n-2]-'0')*10 + int64(s[n-1]-'0')
	if m < 1 || m > 12 || d < 1 || d > monthDays(y, m) {
		return 0, false
	}
	// H. Hinnant's days_from_civil. A text whose year is not four plain
	// digits must be the day's rendering: that refuses -0000, a zero ahead
	// of a fifth digit, and a year whose day number wraps past int64.
	if m <= 2 {
		y--
	}
	era := y / 400
	if y%400 < 0 {
		era--
	}
	yoe := y - era*400
	doy := (153*((m+9)%12)+2)/5 + d - 1
	days := era*146097 + yoe*365 + yoe/4 - yoe/100 + doy - 719468
	var buf [24]byte
	return days, plain || string(appendDays(buf[:0], days)) == s
}

// monthDays is the length of month m of year y.
func monthDays(y, m int64) int64 {
	switch {
	case m == 2 && y%4 == 0 && (y%100 != 0 || y%400 == 0):
		return 29
	case m == 2:
		return 28
	case m == 4 || m == 6 || m == 9 || m == 11:
		return 30
	}
	return 31
}

// LooksLikeDate reports whether s has the shape FormatDays writes:
// [-]YYYY-MM-DD in ASCII digits, the year at least four digits.
func LooksLikeDate(s string) bool {
	n := len(s)
	if n < 10 || s[n-3] != '-' || s[n-6] != '-' || s[0] == '-' && n < 11 {
		return false
	}
	for i := range n {
		if c := s[i]; (c < '0' || c > '9') && i != n-3 && i != n-6 && !(i == 0 && c == '-') {
			return false
		}
	}
	return true
}

// FromCSV interprets a raw CSV field: S3 Select treats all CSV fields as
// strings until CAST; PushdownDB's loaders use FromCSV to infer INT, FLOAT
// and DATE where unambiguous.
func FromCSV(field string) Value {
	if field == "" {
		return Null()
	}
	if d, ok := parseDays(field); ok {
		return Date(d)
	}
	if n, ok := ParseNum(field); ok {
		return n
	}
	return Str(field)
}

// CSVCell types cell j of a CSV row with FromCSV. This is the one short-row
// rule every decoder applies, and the select engine too: a row is as wide
// as its header, so a cell missing from the end of a short row is NULL and
// a cell past the header is never read.
func CSVCell(fields []string, j int) Value {
	if j >= len(fields) {
		return Null()
	}
	return FromCSV(fields[j])
}

// ParseNum is the one string-to-number conversion: it returns what
// strconv.ParseInt(s, 10, 64) accepts as an INT, failing that what
// strconv.ParseFloat(s, 64) accepts as a FLOAT (so "Inf", "0x1p-2" and
// "1_000" are numbers and "1e400" is not), and false for everything else.
// It does not trim; callers whose rule ignores surrounding space (CAST,
// comparison) trim first.
//
// Most CSV cells are not numbers, and strconv reports that with a freshly
// allocated *NumError holding a copy of the input. ParseNum therefore
// looks at the shape first and calls strconv only on strings built like a
// number: dates, flags and names are refused without allocating.
func ParseNum(s string) (Value, bool) {
	digits := s
	if len(s) > 0 && (s[0] == '+' || s[0] == '-') {
		digits = s[1:]
	}
	if len(digits) == 0 {
		return Null(), false
	}
	i, n := 0, int64(0)
	for i < len(digits) && digits[i] >= '0' && digits[i] <= '9' {
		n = n*10 + int64(digits[i]-'0') // wraps past 18 digits; unused then
		i++
	}
	if i < len(digits) {
		if !floatShaped(digits, len(digits) != len(s)) {
			return Null(), false
		}
	} else if i <= 18 { // cannot overflow
		if s[0] == '-' {
			n = -n
		}
		return Int(n), true
	} else if n, err := strconv.ParseInt(s, 10, 64); err == nil {
		return Int(n), true
	}
	f, err := strconv.ParseFloat(s, 64)
	return Float(f), err == nil
}

// floatShaped reports whether s, a number's text after its sign, could be
// a float in strconv's grammar. It accepts every string strconv does and
// refuses a sign anywhere but behind an exponent marker, any character no
// decimal or hexadecimal float contains, and a first character no number
// starts with — which is what tells 1994-01-01, 25-989-741-2988 and
// 1-URGENT from 1e-3 at a glance.
func floatShaped(s string, signed bool) bool {
	switch c := s[0]; {
	case c >= '0' && c <= '9', c == '.':
	case c|0x20 == 'i':
		return strings.EqualFold(s, "inf") || strings.EqualFold(s, "infinity")
	case c|0x20 == 'n':
		return !signed && strings.EqualFold(s, "nan")
	default:
		return false
	}
	for i := 1; i < len(s); i++ {
		switch c, lower := s[i], s[i]|0x20; {
		case c >= '0' && c <= '9', lower >= 'a' && lower <= 'f', lower == 'x', lower == 'p', c == '.', c == '_':
		case c == '+', c == '-':
			if prev := s[i-1] | 0x20; prev != 'e' && prev != 'p' {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// CastInt implements CAST(x AS INT).
func CastInt(v Value) (Value, error) {
	switch v.kind {
	case KindNull:
		return Null(), nil
	case KindInt:
		return v, nil
	case KindFloat:
		return Int(int64(v.float())), nil
	case KindBool, KindDate:
		return Int(v.i), nil
	case KindString:
		n, ok := ParseNum(strings.TrimSpace(v.s))
		if !ok {
			return Null(), fmt.Errorf("value: cannot CAST %q AS INT", v.s)
		}
		if n.kind == KindFloat {
			return Int(int64(n.float())), nil
		}
		return n, nil
	}
	return Null(), fmt.Errorf("value: cannot CAST %s AS INT", v.kind)
}

// CastFloat implements CAST(x AS FLOAT) / AS DECIMAL.
func CastFloat(v Value) (Value, error) {
	switch v.kind {
	case KindNull:
		return Null(), nil
	case KindFloat:
		return v, nil
	case KindInt, KindBool, KindDate:
		return Float(float64(v.i)), nil
	case KindString:
		s := strings.TrimSpace(v.s)
		n, ok := ParseNum(s)
		if !ok {
			return Null(), fmt.Errorf("value: cannot CAST %q AS FLOAT", v.s)
		}
		f, _ := n.Num()
		if f == 0 && s[0] == '-' {
			f = math.Copysign(0, -1) // "-0" is an INT to ParseNum; the float keeps its sign
		}
		return Float(f), nil
	}
	return Null(), fmt.Errorf("value: cannot CAST %s AS FLOAT", v.kind)
}

// CastString implements CAST(x AS STRING).
func CastString(v Value) Value {
	if v.IsNull() {
		return Null()
	}
	return Str(v.String())
}

// CastDate implements CAST(x AS DATE) / the TIMESTAMP literal coercion.
func CastDate(v Value) (Value, error) {
	switch v.kind {
	case KindNull:
		return Null(), nil
	case KindDate:
		return v, nil
	case KindInt:
		return Date(v.i), nil
	case KindString:
		return ParseDate(strings.TrimSpace(v.s))
	}
	return Null(), fmt.Errorf("value: cannot CAST %s AS DATE", v.kind)
}

// Compare orders a and b, returning -1, 0 or +1. NULL sorts before
// everything and equals only NULL. Numeric kinds (INT, FLOAT, BOOL, DATE)
// compare numerically with each other; a numeric compared with a STRING
// attempts to parse the string as a number first (this mirrors S3 Select's
// behaviour on CSV where every field is textual), falling back to string
// comparison of the rendered forms.
func Compare(a, b Value) int {
	if a.kind == KindNull || b.kind == KindNull {
		switch {
		case a.kind == KindNull && b.kind == KindNull:
			return 0
		case a.kind == KindNull:
			return -1
		default:
			return 1
		}
	}
	if a.kind == KindString && b.kind == KindString {
		// CSV semantics: S3 Select sees every CSV field as text, so two
		// fields that both parse as numbers compare numerically (account
		// balances, keys); otherwise lexicographically (names, dates).
		if an, aok := CoerceNum(a); aok {
			if bn, bok := CoerceNum(b); bok {
				return CompareFloat(an, bn)
			}
		}
		return strings.Compare(a.s, b.s)
	}
	if a.kind == KindString {
		return -Compare(b, a)
	}
	if b.kind == KindString {
		// Numeric when the string parses; otherwise, and for dates always,
		// a's textual form against the string (order-preserving for
		// YYYY-MM-DD).
		if a.kind != KindDate {
			an, _ := a.Num()
			if bn, ok := CoerceNum(b); ok {
				return CompareFloat(an, bn)
			}
		} else if FourDigitYear(a.i) && len(b.s) == 10 {
			// A date and a valid YYYY-MM-DD, both of years 0000-9999,
			// sort as their texts do when their days are compared.
			if d, ok := parseDays(b.s); ok {
				return cmp.Compare(a.i, d)
			}
		}
		// Rendered into the stack: this runs once per scanned row.
		var buf [32]byte
		switch text := string(a.Append(buf[:0])); {
		case text < b.s:
			return -1
		case text > b.s:
			return 1
		}
		return 0
	}
	an, _ := a.Num()
	bn, _ := b.Num()
	return CompareFloat(an, bn)
}

// CoerceNum is the comparison rule's numeric reading of v: a string counts
// when, trimmed, it parses. An INT's float64 is the float strconv would
// have parsed from the same digits (both round the exact integer to
// nearest-even; "-0" differs in sign only, which no comparison sees).
func CoerceNum(v Value) (float64, bool) {
	if v.kind == KindString {
		n, ok := ParseNum(strings.TrimSpace(v.s))
		if !ok {
			return 0, false
		}
		return n.Num()
	}
	return v.Num()
}

// CompareFloat orders floats totally: NaN equals only NaN and sorts after
// every number (otherwise `x = lit` would hold for any x when either side
// is NaN, since both < and > are false). Compare orders numbers by it.
func CompareFloat(a, b float64) int {
	an, bn := math.IsNaN(a), math.IsNaN(b)
	switch {
	case an && bn:
		return 0
	case an:
		return 1
	case bn:
		return -1
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// Equal reports Compare(a,b)==0 with the extra rule that NULL != NULL
// under SQL equality; use Compare for sorting and Equal for predicates.
func Equal(a, b Value) bool {
	if a.kind == KindNull || b.kind == KindNull {
		return false
	}
	return Compare(a, b) == 0
}

// Hash returns a 64-bit hash consistent with Equal for non-NULL values:
// values Equal calls equal hash identically. Numbers hash by their float64
// (INT 3, FLOAT 3.0 and a BOOL or DATE of the same payload alike, every NaN
// alike); a STRING that CoerceNum reads as a number ("3", " 3", "3.0 ")
// hashes as that number, a text that is some day's FormatDays rendering as
// that day's number, and any other string by its bytes. A BOOL and its text
// ("true") are equal without hashing alike; no loaded relation holds both.
func (v Value) Hash() uint64 {
	switch v.kind {
	case KindNull:
		return fnv(offset64, 0)
	case KindString:
		if f, ok := CoerceNum(v); ok {
			return hashNum(f)
		}
		if d, ok := parseDays(v.s); ok {
			return hashNum(float64(d))
		}
		h := uint64(offset64)
		for i := 0; i < len(v.s); i++ {
			h = fnv(h, v.s[i])
		}
		return h
	}
	f, _ := v.Num()
	return hashNum(f)
}

// offset64 is the FNV-1a hash of nothing, which fnv extends byte by byte.
const offset64 = 14695981039346656037

// fnv extends FNV-1a hash h by byte b.
func fnv(h uint64, b byte) uint64 { return (h ^ uint64(b)) * 1099511628211 }

// hashNum hashes a number by its integer when it is one, else by its bits,
// every NaN as one.
func hashNum(f float64) uint64 {
	u := math.Float64bits(f)
	switch {
	case math.IsNaN(f):
		u = math.Float64bits(math.NaN())
	case f == math.Trunc(f) && !math.IsInf(f, 0):
		u = uint64(int64(f))
	}
	h := uint64(offset64)
	for i := 0; i < 8; i++ {
		h = fnv(h, byte(u>>(8*i)))
	}
	return h
}

// Truthy interprets a value in a WHERE context: only BOOL true is true;
// NULL and everything else are false.
func Truthy(v Value) bool {
	return v.kind == KindBool && v.i != 0
}
