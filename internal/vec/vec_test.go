package vec

import (
	"math"
	"reflect"
	"testing"

	"pushdowndb/internal/value"
)

// TestBitmapBasics: a vector's null mask flags exactly the rows SetNull
// named, at lengths on and off the 64-bit word boundaries.
func TestBitmapBasics(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 127, 128, 1000} {
		v := NewVector(value.KindInt, n)
		if v.Nulls != nil {
			t.Fatalf("n=%d: a fresh vector has a null mask", n)
		}
		for i := 0; i < n; i += 3 {
			v.SetNull(i)
		}
		for i := range n {
			if v.IsNull(i) != (i%3 == 0) || v.Nulls.Get(i) != (i%3 == 0) {
				t.Fatalf("n=%d: row %d null %v", n, i, v.IsNull(i))
			}
		}
	}
}

func TestRowSpans(t *testing.T) {
	cases := []struct {
		n, w int
		want []Span
	}{
		{0, 4, nil},
		{10, 1, []Span{{0, 10}}},
		{10, 3, []Span{{0, 4}, {4, 7}, {7, 10}}},
		{3, 8, []Span{{0, 1}, {1, 2}, {2, 3}}},
		{5, 0, []Span{{0, 5}}},
	}
	for _, c := range cases {
		got := RowSpans(c.n, c.w)
		if len(got) == 0 {
			got = nil
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("RowSpans(%d,%d)=%v want %v", c.n, c.w, got, c.want)
		}
	}
}

func TestFromValuesRoundTrip(t *testing.T) {
	cases := map[string][]value.Value{
		"ints":    {value.Int(1), value.Int(-7), value.Int(0)},
		"floats":  {value.Float(1.5), value.Float(math.NaN()), value.Float(math.Inf(1))},
		"strings": {value.Str("a"), value.Str(""), value.Str(" 7")},
		"bools":   {value.Bool(true), value.Bool(false)},
		"dates":   {value.Date(8840), value.Date(0), value.Date(-1)},
		"nulls":   {value.Null(), value.Null()},
		"intsWithNulls": {
			value.Int(3), value.Null(), value.Int(5),
		},
		"mixedKinds": {
			value.Int(1), value.Float(1.0), value.Str("x"), value.Null(),
		},
	}
	same := func(a, b value.Value) bool {
		// reflect.DeepEqual is wrong for NaN payloads; kind + total-order
		// compare is the identity the engine actually depends on.
		return a.Kind() == b.Kind() && value.Compare(a, b) == 0
	}
	for name, vals := range cases {
		v := FromValues(vals)
		if v.Len() != len(vals) {
			t.Fatalf("%s: Len=%d want %d", name, v.Len(), len(vals))
		}
		for i, want := range vals {
			got := v.Value(i)
			if !same(got, want) {
				t.Fatalf("%s[%d]: Value=%#v want %#v", name, i, got, want)
			}
			if v.IsNull(i) != (want.Kind() == value.KindNull) {
				t.Fatalf("%s[%d]: IsNull=%v", name, i, v.IsNull(i))
			}
		}
	}
	// A uniform-kind column must take the typed representation; a
	// mixed-kind one must stay boxed (Int vs Float matters to AggState).
	if v := FromValues(cases["ints"]); v.Boxed != nil || v.Kind != value.KindInt {
		t.Fatalf("ints not typed: kind=%v boxed=%v", v.Kind, v.Boxed != nil)
	}
	if v := FromValues(cases["mixedKinds"]); v.Boxed == nil {
		t.Fatalf("mixed kinds not boxed")
	}
}

func TestBatchColIndex(t *testing.T) {
	b := NewBatch([]string{"A", "a", "b"}, []*Vector{
		FromValues([]value.Value{value.Int(1)}),
		FromValues([]value.Value{value.Int(2)}),
		FromValues([]value.Value{value.Int(3)}),
	})
	// First case-insensitive match wins, like Relation.ColIndex.
	if i := b.ColIndex("a"); i != 0 {
		t.Fatalf("ColIndex(a)=%d want 0", i)
	}
	if i := b.ColIndex("B"); i != 2 {
		t.Fatalf("ColIndex(B)=%d want 2", i)
	}
	if i := b.ColIndex("missing"); i != -1 {
		t.Fatalf("ColIndex(missing)=%d want -1", i)
	}
}

func TestFromRowsRoundTrip(t *testing.T) {
	rows := [][]value.Value{
		{value.Int(1), value.Int(2)},
		{value.Int(3), value.Int(4)},
	}
	b, ok := FromRows([]string{"a", "b"}, rows, 2)
	if !ok {
		t.Fatalf("rectangular rows refused")
	}
	if b.Len() != 2 || len(b.Vecs) != 2 {
		t.Fatalf("batch shape %d x %d", b.Len(), len(b.Vecs))
	}
	back := b.ToRows()
	if !reflect.DeepEqual(back, rows) {
		t.Fatalf("ToRows=%v want %v", back, rows)
	}
}
