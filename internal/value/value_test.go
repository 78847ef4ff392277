package value

import (
	"math"
	"strconv"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"pushdowndb/internal/race"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull: "NULL", KindBool: "BOOL", KindInt: "INT",
		KindFloat: "FLOAT", KindString: "STRING", KindDate: "DATE",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
	if got := Kind(99).String(); got != "Kind(99)" {
		t.Errorf("unknown kind = %q", got)
	}
}

func TestZeroValueIsNull(t *testing.T) {
	var v Value
	if !v.IsNull() || v.Kind() != KindNull {
		t.Fatalf("zero Value should be NULL, got %v", v.Kind())
	}
	if v.String() != "" {
		t.Fatalf("NULL renders as empty string, got %q", v.String())
	}
}

// TestValueIsFourWords pins the size every row slab of every relation
// multiplies: a kind, one payload word shared by INT and FLOAT (a FLOAT is
// held as its IEEE bits), and the string header.
func TestValueIsFourWords(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 32 {
		t.Errorf("unsafe.Sizeof(Value{}) = %d, want 32", got)
	}
	for _, f := range []float64{0, math.Copysign(0, -1), 1.5, -2.25e300, math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64} {
		if got := Float(f).AsFloat(); math.Float64bits(got) != math.Float64bits(f) {
			t.Errorf("Float(%v).AsFloat() = %v", f, got)
		}
	}
	if !math.IsNaN(Float(math.NaN()).AsFloat()) {
		t.Error("NaN did not survive Float")
	}
}

// TestFourDigitYearBounds: the range FourDigitYear admits is exactly the
// days whose rendering is a 10-character YYYY-MM-DD.
func TestFourDigitYearBounds(t *testing.T) {
	lo, hi := DateFromYMD(1, time.January, 1).Days(), DateFromYMD(9999, time.December, 31).Days()
	for _, d := range []int64{lo - 1, lo, hi, hi + 1} {
		if got, want := FourDigitYear(d), len(FormatDays(d)) == 10 && d >= lo && d <= hi; got != want {
			t.Errorf("FourDigitYear(%d) (%s) = %v, want %v", d, FormatDays(d), got, want)
		}
	}
}

func TestConstructorsAndAccessors(t *testing.T) {
	if !Bool(true).AsBool() || Bool(false).AsBool() {
		t.Error("Bool round trip failed")
	}
	if Int(-42).AsInt() != -42 {
		t.Error("Int round trip failed")
	}
	if Float(2.5).AsFloat() != 2.5 {
		t.Error("Float round trip failed")
	}
	if Str("abc").AsString() != "abc" {
		t.Error("Str round trip failed")
	}
	if Date(19000).Days() != 19000 {
		t.Error("Date round trip failed")
	}
}

func TestAccessorPanics(t *testing.T) {
	cases := []func(){
		func() { Int(1).AsBool() },
		func() { Str("x").AsInt() },
		func() { Int(1).AsFloat() },
		func() { Int(1).AsString() },
		func() { Int(1).Days() },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestDateFromYMDAndFormat(t *testing.T) {
	v := DateFromYMD(1995, time.March, 15)
	if got := v.String(); got != "1995-03-15" {
		t.Errorf("date format = %q, want 1995-03-15", got)
	}
	epoch := DateFromYMD(1970, time.January, 1)
	if epoch.Days() != 0 {
		t.Errorf("epoch days = %d, want 0", epoch.Days())
	}
}

func TestParseDate(t *testing.T) {
	v, err := ParseDate("1992-06-01")
	if err != nil {
		t.Fatal(err)
	}
	if v.String() != "1992-06-01" {
		t.Errorf("round trip = %q", v.String())
	}
	if _, err := ParseDate("1992-13-01"); err == nil {
		t.Error("expected error for month 13")
	}
	if _, err := ParseDate("junk"); err == nil {
		t.Error("expected error for junk")
	}
}

func TestLooksLikeDate(t *testing.T) {
	good := []string{"1992-03-01", "2020-12-31", "0001-01-01"}
	bad := []string{"", "1992-3-01", "1992/03/01", "19920301xx", "abcd-ef-gh", "1992-03-011"}
	for _, s := range good {
		if !LooksLikeDate(s) {
			t.Errorf("LooksLikeDate(%q) = false", s)
		}
	}
	for _, s := range bad {
		if LooksLikeDate(s) {
			t.Errorf("LooksLikeDate(%q) = true", s)
		}
	}
}

func TestFromCSV(t *testing.T) {
	cases := []struct {
		in   string
		kind Kind
	}{
		{"", KindNull},
		{"42", KindInt},
		{"-7", KindInt},
		{"3.14", KindFloat},
		{"1995-01-01", KindDate},
		{"BUILDING", KindString},
		{"12abc", KindString},
	}
	for _, c := range cases {
		if got := FromCSV(c.in).Kind(); got != c.kind {
			t.Errorf("FromCSV(%q).Kind() = %v, want %v", c.in, got, c.kind)
		}
	}
}

func TestCasts(t *testing.T) {
	if v, err := CastInt(Str(" 42 ")); err != nil || v.AsInt() != 42 {
		t.Errorf("CastInt(' 42 ') = %v, %v", v, err)
	}
	if v, err := CastInt(Float(3.9)); err != nil || v.AsInt() != 3 {
		t.Errorf("CastInt(3.9) = %v, %v (want truncation)", v, err)
	}
	if v, err := CastInt(Str("3.9")); err != nil || v.AsInt() != 3 {
		t.Errorf("CastInt('3.9') = %v, %v", v, err)
	}
	if _, err := CastInt(Str("zzz")); err == nil {
		t.Error("CastInt('zzz') should fail")
	}
	if v, err := CastFloat(Str("2.5")); err != nil || v.AsFloat() != 2.5 {
		t.Errorf("CastFloat('2.5') = %v, %v", v, err)
	}
	if v, err := CastFloat(Int(7)); err != nil || v.AsFloat() != 7 {
		t.Errorf("CastFloat(7) = %v, %v", v, err)
	}
	if _, err := CastFloat(Str("zzz")); err == nil {
		t.Error("CastFloat('zzz') should fail")
	}
	if v := CastString(Int(5)); v.AsString() != "5" {
		t.Errorf("CastString(5) = %v", v)
	}
	if !CastString(Null()).IsNull() {
		t.Error("CastString(NULL) should be NULL")
	}
	if v, err := CastDate(Str("1994-01-01")); err != nil || v.String() != "1994-01-01" {
		t.Errorf("CastDate = %v, %v", v, err)
	}
	if n, err := CastInt(Null()); err != nil || !n.IsNull() {
		t.Error("CastInt(NULL) should be NULL")
	}
}

func TestCompareNumeric(t *testing.T) {
	if Compare(Int(1), Int(2)) != -1 || Compare(Int(2), Int(1)) != 1 || Compare(Int(3), Int(3)) != 0 {
		t.Error("int comparison broken")
	}
	if Compare(Int(1), Float(1.5)) != -1 {
		t.Error("int vs float comparison broken")
	}
	if Compare(Float(2.0), Int(2)) != 0 {
		t.Error("numeric equality across kinds broken")
	}
}

func TestCompareStringsAndMixed(t *testing.T) {
	if Compare(Str("a"), Str("b")) != -1 {
		t.Error("string comparison broken")
	}
	// Numeric string vs number compares numerically (CSV semantics).
	if Compare(Str("10"), Int(9)) != 1 {
		t.Error("'10' should compare greater than 9 numerically")
	}
	if Compare(Str("abc"), Int(9)) == 0 {
		t.Error("non-numeric string should not equal number")
	}
	// Date vs string compares textually, preserving order for ISO dates.
	d, _ := ParseDate("1994-01-01")
	if Compare(d, Str("1995-01-01")) != -1 {
		t.Error("date < later date string")
	}
	if Compare(Str("1993-06-30"), d) != -1 {
		t.Error("earlier date string < date")
	}
}

func TestCompareNulls(t *testing.T) {
	if Compare(Null(), Null()) != 0 {
		t.Error("NULL compares equal to NULL for sorting")
	}
	if Compare(Null(), Int(0)) != -1 || Compare(Int(0), Null()) != 1 {
		t.Error("NULL sorts first")
	}
	if Equal(Null(), Null()) {
		t.Error("NULL != NULL under SQL equality")
	}
}

func TestTruthy(t *testing.T) {
	if !Truthy(Bool(true)) || Truthy(Bool(false)) || Truthy(Int(1)) || Truthy(Null()) {
		t.Error("Truthy semantics broken")
	}
}

func TestHashConsistentWithEqual(t *testing.T) {
	if Int(5).Hash() != Float(5).Hash() {
		t.Error("numerically equal values must hash equal")
	}
	if Int(5).Hash() == Int(6).Hash() {
		t.Error("expected different hashes for 5 and 6")
	}
	if Str("a").Hash() == Str("b").Hash() {
		t.Error("expected different hashes for distinct strings")
	}
}

func TestFloatRendering(t *testing.T) {
	if got := Float(0.1).String(); got != "0.1" {
		t.Errorf("Float(0.1) = %q", got)
	}
	if got := Float(100).String(); got != "100" {
		t.Errorf("Float(100) = %q", got)
	}
}

// Property: FromCSV(v.String()) preserves numeric meaning for ints.
func TestQuickIntRoundTrip(t *testing.T) {
	f := func(i int64) bool {
		v := FromCSV(strconv.FormatInt(i, 10))
		return v.Kind() == KindInt && v.AsInt() == i
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Compare is antisymmetric and Compare(a,a)==0 for finite floats.
func TestQuickCompareAntisymmetric(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		va, vb := Float(a), Float(b)
		return Compare(va, vb) == -Compare(vb, va) && Compare(va, va) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: date round trip through formatting for a plausible day range.
func TestQuickDateRoundTrip(t *testing.T) {
	f := func(d uint16) bool {
		days := int64(d) // 1970..2149
		v, err := ParseDate(FormatDays(days))
		return err == nil && v.Days() == days
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Hash agrees across Int/Float for whole numbers.
func TestQuickHashIntFloatAgree(t *testing.T) {
	f := func(i int32) bool {
		return Int(int64(i)).Hash() == Float(float64(i)).Hash()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestAppendDaysMatchesTime: the arithmetic date rendering is time's, day
// for day, across every four-digit year, and time's outside them; into a
// buffer with room it allocates nothing.
func TestAppendDaysMatchesTime(t *testing.T) {
	ref := func(d int64) string { return time.Unix(d*86400, 0).UTC().Format("2006-01-02") }
	buf := make([]byte, 0, 16)
	first, last := int64(-719162), int64(2932896) // 0001-01-01, 9999-12-31
	if ref(first) != "0001-01-01" || ref(last) != "9999-12-31" {
		t.Fatalf("the four-digit years run %s to %s", ref(first), ref(last))
	}
	for d := first; d <= last; d++ {
		if got := appendDays(buf[:0], d); string(got) != ref(d) {
			t.Fatalf("day %d renders %q, want %q", d, got, ref(d))
		}
	}
	for _, d := range []int64{first - 1, first - 366, last + 1, last + 400000, -1 << 30, 1 << 30} {
		if got := appendDays(buf[:0], d); string(got) != ref(d) {
			t.Errorf("day %d renders %q, want %q", d, got, ref(d))
		}
	}
	if race.Enabled {
		return
	}
	days := []int64{first, -1, 0, 8766, 10956, last}
	if n := testing.AllocsPerRun(100, func() {
		for _, d := range days {
			buf = Date(d).Append(buf[:0])
		}
	}); n != 0 {
		t.Errorf("rendering a date into a buffer with room allocates %v times, want 0", n)
	}
}
