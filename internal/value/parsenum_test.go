package value

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"pushdowndb/internal/race"
)

// refParseNum is the rule ParseNum must reproduce: strconv's base-10
// integer, failing that strconv's float.
func refParseNum(s string) (Value, bool) {
	if i, err := strconv.ParseInt(s, 10, 64); err == nil {
		return Int(i), true
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return Float(f), true
	}
	return Null(), false
}

// identical is bitwise (a FLOAT is held as its IEEE bits): it tells -0 from
// 0 and equates NaN with NaN.
func identical(a, b Value) bool { return a == b }

// checkNumericEntryPoints holds every string-to-number entry point to the
// strconv calls it made before ParseNum existed.
func checkNumericEntryPoints(t *testing.T, s string) {
	t.Helper()
	got, ok := ParseNum(s)
	want, wantOK := refParseNum(s)
	if ok != wantOK || (ok && !identical(got, want)) {
		t.Fatalf("ParseNum(%q) = %v %v, %v; strconv says %v %v, %v", s, got.kind, got, ok, want.kind, want, wantOK)
	}

	trimmed := strings.TrimSpace(s)
	f, ferr := strconv.ParseFloat(trimmed, 64)
	if v, err := CastFloat(Str(s)); (err == nil) != (ferr == nil) || (err == nil && !identical(v, Float(f))) {
		t.Fatalf("CastFloat(%q) = %v, %v; strconv.ParseFloat = %v, %v", s, v, err, f, ferr)
	}
	wantInt, wantIntOK := refParseNum(trimmed)
	if wantIntOK && wantInt.kind == KindFloat {
		wantInt = Int(int64(wantInt.float()))
	}
	if v, err := CastInt(Str(s)); (err == nil) != wantIntOK || (err == nil && !identical(v, wantInt)) {
		t.Fatalf("CastInt(%q) = %v, %v; want %v, %v", s, v, err, wantInt, wantIntOK)
	}
	if c, cok := CoerceNum(Str(s)); cok != (ferr == nil) || (cok && CompareFloat(c, f) != 0) {
		t.Fatalf("CoerceNum(%q) = %v, %v; strconv.ParseFloat = %v, %v", s, c, cok, f, ferr)
	}

	// FromCSV: empty is NULL, dates win, then the numeric rule, else text.
	wantCSV := Str(s)
	switch d, err := ParseDate(s); {
	case s == "":
		wantCSV = Null()
	case LooksLikeDate(s) && err == nil:
		wantCSV = d
	case wantOK:
		wantCSV = want
	}
	if v := FromCSV(s); !identical(v, wantCSV) {
		t.Fatalf("FromCSV(%q) = %v %v, want %v %v", s, v.kind, v, wantCSV.kind, wantCSV)
	}
}

var numSeeds = []string{
	"inf", "NaN", "+5", " 5", "1e400", "0x1p-2", "1_000", "1994-01-01", "-", ".",
	"", "0", "-0", "+0", "-0.0", "007", "12345678901234567", "123456789012345678", "-999999999999999999",
	"9223372036854775807", "9223372036854775808", "-9223372036854775808", "-9223372036854775809",
	"1234567890123456789012345", "1.5", "-.5", "5.", "1e5", "1E-5", "1e+5", "1e", "e5", "1e-", "--5", "+-5",
	"Infinity", "-INF", "+inf", "infin", "infinityy", "nan", "+nan", "-NaN", "nAn", "NONE", "INDIA", "n", "i",
	"0x10", "0X1.8P1", "0x", "0x1", "1_0.0_1", "_1", "1_", "1__0", "1e1_0", "0b101", "0o17",
	"R", "TRUCK", "1-URGENT", "25-989-741-2988", "Brand#13", "1994-13-45", "12:30", "1,5", "1 5", "5 ", "\t5\n",
	"1e-01-01", "\x105", "1\x10", "٣", "1a", "abc", "deadbeef", "1p3", "1.2.3", "2e308", "-2e308", "4.9e-324", "1e-400",
}

func FuzzParseNum(f *testing.F) {
	for _, s := range numSeeds {
		f.Add(s)
	}
	f.Fuzz(checkNumericEntryPoints)
}

func TestParseNumMatchesStrconv(t *testing.T) {
	for _, s := range numSeeds {
		checkNumericEntryPoints(t, s)
	}
	// Random strings over the alphabet numbers are written in, so that a
	// good share of them are numbers or nearly so.
	const alphabet = "0123456789+-._eExXpPaAfFiInNtTyY 9"
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 200000; n++ {
		b := make([]byte, rng.Intn(8))
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		checkNumericEntryPoints(t, string(b))
	}
}

// TestCompareDateStringMatchesRendering pins the DATE-vs-STRING order to
// what it has always been: the date's FormatDays text against the string.
func TestCompareDateStringMatchesRendering(t *testing.T) {
	sign := func(c int) int {
		switch {
		case c < 0:
			return -1
		case c > 0:
			return 1
		}
		return 0
	}
	rng := rand.New(rand.NewSource(2))
	strs := []string{"", "1994-01-01", "1994-01-0", "1994-01-011", "1994", "2", "a", "0000-01-01", "9999-12-31", "10000-01-01", "-001-01-01", "1970-01-01", "19940101", " 1994-01-01"}
	for n := 0; n < 20000; n++ {
		days := rng.Int63n(40000) - 10000
		if n%10 == 0 {
			days = rng.Int63n(8000000) - 4000000 // years before 0000 and after 9999
		}
		s := strs[rng.Intn(len(strs))]
		switch rng.Intn(3) {
		case 0:
			s = FormatDays(days + rng.Int63n(3) - 1)
		case 1:
			b := []byte(FormatDays(days))
			b[rng.Intn(len(b))] = byte(' ' + rng.Intn(95))
			s = string(b)
		}
		want := strings.Compare(FormatDays(days), s)
		if got := Compare(Date(days), Str(s)); sign(got) != want {
			t.Fatalf("Compare(Date(%d)=%s, %q) = %d, want %d", days, FormatDays(days), s, got, want)
		}
		if got := Compare(Str(s), Date(days)); sign(got) != -want {
			t.Fatalf("Compare(%q, Date(%d)=%s) = %d, want %d", s, days, FormatDays(days), got, -want)
		}
	}
}

func TestAppendMatchesString(t *testing.T) {
	vals := []Value{Null(), Bool(true), Bool(false), Int(0), Int(-42), Int(math.MinInt64), Float(1.5), Float(-0.0),
		Float(1e300), Float(math.Inf(-1)), Float(math.NaN()), Str(""), Str("a,b"), Date(0), Date(8766), Date(-800000), Date(4000000)}
	for _, v := range vals {
		if got := string(v.Append([]byte("x"))); got != "x"+v.String() {
			t.Errorf("Append(%v %v) = %q, want %q", v.kind, v, got, "x"+v.String())
		}
	}
}

// TestHotPathsDoNotAllocate pins the per-cell work of a CSV scan: typing
// a cell, and comparing one with a literal, allocate nothing — whether or
// not the cell is a number.
func TestHotPathsDoNotAllocate(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts differ under the race detector")
	}
	cells := []string{"1994-01-01", "R", "TRUCK", "NONE", "DELIVER IN PERSON", "17", "-3", "0.04", "21168.23", "1-URGENT", "25-989-741-2988", ""}
	var sink Value
	var cmp int
	if n := testing.AllocsPerRun(100, func() {
		for _, c := range cells {
			sink = FromCSV(c)
		}
	}); n != 0 {
		t.Errorf("FromCSV allocates %v times over %d cells, want 0", n, len(cells))
	}
	lits := []Value{Int(24), Float(0.05), Str("R"), Str("0.06"), Date(8766), Str("1994-01-01")}
	if n := testing.AllocsPerRun(100, func() {
		for _, c := range cells {
			for _, l := range lits {
				cmp += Compare(Str(c), l)
				cmp += Compare(l, Str(c))
			}
		}
	}); n != 0 {
		t.Errorf("Compare allocates %v times over %d cell/literal pairs, want 0", n, 2*len(cells)*len(lits))
	}
	_, _ = sink, cmp
}
