package vec

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"pushdowndb/internal/race"
	"pushdowndb/internal/sqlparse"
	"pushdowndb/internal/value"
)

func TestBitmapBasics(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 127, 128, 1000} {
		b := NewBitmap(n)
		if b.Len() != n {
			t.Fatalf("n=%d: Len=%d", n, b.Len())
		}
		if b.Count() != 0 {
			t.Fatalf("n=%d: fresh bitmap not empty", n)
		}
		for i := range n {
			b.Set(i)
		}
		if b.Count() != n {
			t.Fatalf("n=%d: all set, count=%d", n, b.Count())
		}
		idx := b.Indices()
		if len(idx) != n {
			t.Fatalf("n=%d: Indices len=%d", n, len(idx))
		}
		for i, v := range idx {
			if v != i {
				t.Fatalf("n=%d: Indices[%d]=%d", n, i, v)
			}
		}
		if n > 0 && (!b.Get(n-1) || NewBitmap(n).Get(n-1)) {
			t.Fatalf("n=%d: Get disagrees with Set", n)
		}
	}
}

func TestBitmapIndicesSparse(t *testing.T) {
	b := NewBitmap(200)
	want := []int{0, 1, 63, 64, 65, 126, 127, 128, 199}
	for _, i := range want {
		b.Set(i)
	}
	if got := b.Indices(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Indices=%v want %v", got, want)
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

func TestAlignedSpans(t *testing.T) {
	for _, n := range []int{0, 1, 64, 65, 130, 1000} {
		for _, w := range []int{1, 2, 3, 7} {
			sps := alignedSpans(n, w)
			next := 0
			for _, sp := range sps {
				if sp.Lo != next {
					t.Fatalf("n=%d w=%d: gap at %d (spans %v)", n, w, next, sps)
				}
				if sp.Lo%64 != 0 {
					t.Fatalf("n=%d w=%d: span start %d not word-aligned", n, w, sp.Lo)
				}
				if sp.Hi <= sp.Lo {
					t.Fatalf("n=%d w=%d: empty span %v", n, w, sp)
				}
				next = sp.Hi
			}
			if next != n {
				t.Fatalf("n=%d w=%d: spans cover to %d, want %d", n, w, next, n)
			}
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

// TestFoldRefusesAMiscountedBody: a fold lays its chunks out for the rows a
// response claims, so a body holding more or fewer, a claim past what the
// body's bytes can hold, or a body that does not scan is an error, never a
// short fold, an index panic or an allocation the body cannot back — with
// the shortfall inside a chunk or at its edge.
func TestFoldRefusesAMiscountedBody(t *testing.T) {
	defer SetChunkRows(SetChunkRows(1024))
	cols := []string{"a", "b"}
	sel, err := sqlparse.Parse("SELECT a, b, COUNT(*) AS n FROM t GROUP BY a, b")
	if err != nil {
		t.Fatal(err)
	}
	for _, chunk := range []int{1, 2, 1024} {
		SetChunkRows(chunk)
		for _, tc := range []struct {
			body string
			rows int64
		}{
			{"1,2\n3,4\n", 1}, {"1,2\n3,4\n", 3}, {"1,2\n", 1 << 40}, {"1,2\n", -1}, {"1,\"2\n", 1},
		} {
			f, err := NewFold(sel.GroupBy, sel.Items)
			if err != nil {
				t.Fatal(err)
			}
			if err := f.CSV(cols, []byte(tc.body), tc.rows); err == nil {
				t.Errorf("chunks of %d: Fold.CSV(%q, %d rows) folded, want an error", chunk, tc.body, tc.rows)
			}
		}
		f, err := NewFold(sel.GroupBy, sel.Items)
		if err != nil {
			t.Fatal(err)
		}
		err = f.CSV(cols, []byte("1,x\n\n3,\"y,z\"\n"), 3)
		_, rows, ferr := Finish(f.Table, sel.Items)
		if err != nil || ferr != nil || f.Rows != 3 || len(rows) != 3 ||
			rows[0][0].AsInt() != 1 || !rows[1][0].IsNull() || !rows[1][1].IsNull() || rows[2][1].AsString() != "y,z" {
			t.Errorf("chunks of %d: a well-formed body folds to %v (%d rows), %v, %v", chunk, rows, f.Rows, err, ferr)
		}
	}
}

// intKeys is a vector of n integer keys cycling through distinct values.
func intKeys(n, distinct int) *Vector {
	vals := make([]value.Value, n)
	for i := range vals {
		vals[i] = value.Int(int64(i % distinct))
	}
	return FromValues(vals)
}

// TestJoinPairsAllocatesPerSide pins the join build to allocations per side,
// not per key: a 16x larger build side, every key distinct, against the same
// probe costs only the head map's own extra tables more (about one
// allocation per 500 keys).
func TestJoinPairsAllocatesPerSide(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts differ under the race detector")
	}
	probe := intKeys(4096, 1000)
	allocs := func(keys int) float64 {
		build := intKeys(keys, keys)
		return testing.AllocsPerRun(5, func() {
			if bi, _ := JoinPairs(build, probe, 2); len(bi) != probe.Len() {
				t.Fatalf("%d keys: %d pairs, want %d", keys, len(bi), probe.Len())
			}
		})
	}
	small, large := allocs(1000), allocs(16000)
	if large-small > 16000/128 {
		t.Errorf("JoinPairs allocates %v times over 1k build keys and %v over 16k, want a small constant apart", small, large)
	}
}

// BenchmarkJoinPairs is a 15k-row build side against a 60k-row probe, each
// probe key matching one build row.
func BenchmarkJoinPairs(b *testing.B) {
	build, probe := intKeys(15000, 15000), intKeys(60000, 15000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		joinSink, _ = JoinPairs(build, probe, 2)
	}
}

// joinSink keeps the benchmark's result live.
var joinSink []int

// TestGroupKeyEvaluatedOnce: a group key that is not a bare column is
// evaluated once per row, and a new group keeps the value its key was
// rendered from. UPPER allocates its result, so folding 2,000 rows into as
// many groups costs about one allocation per row more than folding them into
// one group only if each new group evaluates its key again.
func TestGroupKeyEvaluatedOnce(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts differ under the race detector")
	}
	sel, err := sqlparse.Parse("SELECT UPPER(s) AS u, COUNT(*) AS n FROM t GROUP BY UPPER(s)")
	if err != nil {
		t.Fatal(err)
	}
	const rows = 2000
	allocs := func(distinct int) float64 {
		vals := make([]value.Value, rows)
		for i := range vals {
			vals[i] = value.Str(fmt.Sprintf("k%d", i%distinct))
		}
		b := NewBatch([]string{"s"}, []*Vector{FromValues(vals)})
		return testing.AllocsPerRun(5, func() {
			if _, _, err := GroupBy(b, sel, 1); err != nil {
				t.Fatal(err)
			}
		})
	}
	if one, many := allocs(1), allocs(rows); many-one > rows/2 {
		t.Errorf("folding %d rows into one group allocates %v times, into %d groups %v: a new group evaluates its key again", rows, one, rows, many)
	}
}
