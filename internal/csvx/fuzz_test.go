package csvx

import (
	"reflect"
	"testing"
)

// FuzzCSVDecode checks the decoder/encoder pair on arbitrary bytes: Decode
// must never panic, and whatever it accepts must survive an encode/decode
// round trip unchanged (Encode canonicalizes quoting, so re-decoding the
// encoding must reproduce the exact header and rows). Byte-range tracking
// is exercised through RowRanges on the same input, and the scanner must
// report exactly what the per-byte reference scanner reports.
func FuzzCSVDecode(f *testing.F) {
	seeds := [][]byte{
		[]byte("a,b,c\n1,2,3\n4,5,6\n"),
		[]byte("k,g,v\n1,x,9.5\n2,,NaN\n"),
		[]byte(`name,q` + "\n" + `"Smith, Al",3` + "\n" + `"O""Hara",4` + "\n"),
		[]byte("a\r\nb\r\n"),
		[]byte("unterminated,last,row"),
		[]byte("\n\n\n"),
		[]byte(""),
		[]byte(`"quoted`),
		[]byte("00501,1e3,-0.0,Inf\n"),
		[]byte("a\rb,\r\"q\"\r,\"x\"y\"z\"\r\n\r\n,\n"),
		[]byte("\"a\"\"b\",\"multi\nline\",plain\n\"\",\"\"\"\"\n"),
	}
	for _, s := range seeds {
		f.Add(s, true)
		f.Add(s, false)
	}
	f.Fuzz(func(t *testing.T, data []byte, hasHeader bool) {
		if got, want := gotTrace(data), refTrace(data); got != want {
			t.Fatalf("scanner disagrees with the reference on %q:\ngot:\n%s\nwant:\n%s", data, got, want)
		}
		header, rows, err := Decode(data, hasHeader)
		if err != nil {
			return // rejecting malformed input is fine; panicking is not
		}
		if _, err := RowRanges(data, hasHeader); err != nil {
			t.Fatalf("Decode accepted input RowRanges rejects: %v", err)
		}
		enc := Encode(header, rows)
		h2, r2, err := Decode(enc, hasHeader && header != nil)
		if err != nil {
			t.Fatalf("re-decode of canonical encoding failed: %v\nencoded: %q", err, enc)
		}
		if !reflect.DeepEqual(header, h2) {
			t.Fatalf("header not stable: %q -> %q (encoded %q)", header, h2, enc)
		}
		if !sameRows(rows, r2) {
			t.Fatalf("rows not stable:\nfirst:  %q\nsecond: %q\nencoded: %q", rows, r2, enc)
		}
	})
}

// sameRows compares row sets treating nil and empty as equal.
func sameRows(a, b [][]string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}
