package bloom

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"pushdowndb/internal/expr"
	"pushdowndb/internal/selectengine"
	"pushdowndb/internal/sqlparse"
	"pushdowndb/internal/value"
)

func TestParamsMatchPaperFormulas(t *testing.T) {
	k, m := Params(1000, 0.01)
	// k = log2(100) = 6.64 -> 7; m = 1000*4.605/0.4805 -> 9586
	if k != 7 {
		t.Errorf("k = %d, want 7", k)
	}
	wantM := int64(math.Ceil(1000 * math.Abs(math.Log(0.01)) / (math.Ln2 * math.Ln2)))
	if m != wantM {
		t.Errorf("m = %d, want %d", m, wantM)
	}
	// Lower FPR -> more hashes, more bits.
	k2, m2 := Params(1000, 0.0001)
	if k2 <= k || m2 <= m {
		t.Error("lower FPR must increase k and m")
	}
}

func TestParamsPanicsOnBadFPR(t *testing.T) {
	for _, p := range []float64{0, 1, -0.5, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Params(_, %v) should panic", p)
				}
			}()
			Params(10, p)
		}()
	}
}

func TestNoFalseNegatives(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := New(500, 0.01, rng)
	for i := int64(0); i < 500; i++ {
		f.Add(i * 3)
	}
	for i := int64(0); i < 500; i++ {
		if !f.Contains(i * 3) {
			t.Fatalf("false negative for %d", i*3)
		}
	}
}

func TestFalsePositiveRateIsReasonable(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := New(1000, 0.01, rng)
	for i := int64(0); i < 1000; i++ {
		f.Add(i)
	}
	fp := 0
	probes := 20000
	for i := 0; i < probes; i++ {
		if f.Contains(int64(1_000_000 + i)) {
			fp++
		}
	}
	rate := float64(fp) / float64(probes)
	if rate > 0.05 {
		t.Errorf("observed FPR %.4f way above target 0.01", rate)
	}
}

func TestBitString(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := New(10, 0.5, rng)
	f.Add(4)
	s := f.BitString()
	if int64(len(s)) != f.m {
		t.Fatalf("bit string length %d != m %d", len(s), f.m)
	}
	if !strings.Contains(s, "1") {
		t.Error("no set bits after Add")
	}
	ones := strings.Count(s, "1")
	if ones > f.K() {
		t.Errorf("one element set %d bits > k %d", ones, f.K())
	}
}

// bindX binds pred to rows of the one column col.
func bindX(t *testing.T, col string, pred sqlparse.Expr) *expr.Evaluator {
	t.Helper()
	ev := &expr.Evaluator{}
	if err := ev.Bind(expr.Index([]string{col}), pred); err != nil {
		t.Fatal(err)
	}
	return ev
}

// The critical equivalence: the predicate evaluated by the select engine
// must agree exactly with Filter.Contains.
func TestSQLPredicateMatchesContains(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	f := New(100, 0.05, rng)
	for i := int64(0); i < 100; i += 2 {
		f.Add(i)
	}
	pred := f.SQLPredicate(&sqlparse.Column{Name: "x"})
	ev := bindX(t, "x", pred)
	for x := int64(0); x < 200; x++ {
		row := []value.Value{value.Str(value.Int(x).String())} // CSV string form
		got, err := ev.EvalBool(pred, row)
		if err != nil {
			t.Fatal(err)
		}
		if got != f.Contains(x) {
			t.Fatalf("SQL predicate and Contains disagree at %d: sql=%v contains=%v",
				x, got, f.Contains(x))
		}
	}
}

func TestSQLPredicateBitwiseMatchesContains(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := New(64, 0.01, rng)
	for i := int64(0); i < 64; i++ {
		f.Add(i * 7)
	}
	pred := f.SQLPredicateBitwise(&sqlparse.Column{Name: "x"})
	ev := bindX(t, "x", pred)
	for x := int64(0); x < 500; x++ {
		got, err := ev.EvalBool(pred, []value.Value{value.Int(x)})
		if err != nil {
			t.Fatal(err)
		}
		if got != f.Contains(x) {
			t.Fatalf("bitwise predicate disagrees at %d", x)
		}
	}
}

func TestBitwisePredicateIsSmaller(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := New(5000, 0.01, rng)
	for i := int64(0); i < 5000; i++ {
		f.Add(i)
	}
	x := &sqlparse.Column{Name: "x"}
	s1 := f.SQLPredicate(x).String()
	s2 := f.SQLPredicateBitwise(x).String()
	// Suggestion 3's entire point: the bitwise form is much more compact
	// (hex once vs '0'/'1' text repeated k times).
	if len(s2)*4 > len(s1) {
		t.Errorf("bitwise form %d bytes not much smaller than string form %d", len(s2), len(s1))
	}
}

func TestFitDegradesFPR(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	keys := make([]int64, 20000)
	for i := range keys {
		keys[i] = int64(i)
	}
	// A tight budget forces FPR degradation (Section V-B1).
	f, pred, fpr, ok := Fit(keys, 0.0001, &sqlparse.Column{Name: "k"}, 64*1024, rng)
	if !ok {
		t.Fatal("Fit should succeed by degrading FPR")
	}
	if fpr <= 0.0001 {
		t.Errorf("FPR should have been degraded, got %v", fpr)
	}
	if n := len(pred.String()); n > 64*1024 {
		t.Errorf("printed predicate length %d exceeds budget", n)
	}
	for _, k := range keys[:100] {
		if !f.Contains(k) {
			t.Fatal("degraded filter lost an element")
		}
	}
}

func TestFitFallsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	keys := make([]int64, 3_000_000)
	for i := range keys {
		keys[i] = int64(i)
	}
	// 3M keys cannot fit a meaningful filter in 4 KB: must report ok=false
	// so the caller reverts to a filtered join.
	if _, _, _, ok := Fit(keys, 0.01, &sqlparse.Column{Name: "k"}, 4*1024, rng); ok {
		t.Error("Fit should fall back for impossible budgets")
	}
}

func TestFitFitsWhenEasy(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	keys := []int64{1, 5, 9}
	f, pred, fpr, ok := Fit(keys, 0.01, &sqlparse.Column{Name: "k"}, selectengine.MaxSQLBytes, rng)
	if !ok || fpr != 0.01 {
		t.Fatalf("Fit small set: ok=%v fpr=%v", ok, fpr)
	}
	if f == nil || pred == nil {
		t.Fatal("missing filter or predicate")
	}
}

func TestNextPrime(t *testing.T) {
	cases := map[int64]int64{1: 2, 2: 2, 3: 3, 4: 5, 8: 11, 90: 97, 97: 97, 100: 101}
	for in, want := range cases {
		if got := nextPrime(in); got != want {
			t.Errorf("nextPrime(%d) = %d, want %d", in, got, want)
		}
	}
}

// Property: no false negatives for arbitrary key sets.
func TestQuickNoFalseNegatives(t *testing.T) {
	f := func(keys []int64, seed int64) bool {
		if len(keys) == 0 {
			return true
		}
		rng := rand.New(rand.NewSource(seed))
		bf := New(len(keys), 0.01, rng)
		for _, k := range keys {
			bf.Add(k)
		}
		for _, k := range keys {
			if !bf.Contains(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: hex encoding matches the bit string bit for bit.
func TestQuickHexMatchesBitString(t *testing.T) {
	f := func(keys []uint16, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		bf := New(len(keys)+1, 0.05, rng)
		for _, k := range keys {
			bf.Add(int64(k))
		}
		bs := bf.BitString()
		hx := hexEncode(bf.bits)
		hexVal := func(c byte) int {
			if c >= 'a' {
				return int(c-'a') + 10
			}
			return int(c - '0')
		}
		for i := 0; i < len(bs); i++ {
			byteIdx, bitIdx := i/8, i%8
			var v, pos int
			if bitIdx < 4 {
				v = hexVal(hx[2*byteIdx+1]) // low nibble is the second char
				pos = bitIdx
			} else {
				v = hexVal(hx[2*byteIdx])
				pos = bitIdx - 4
			}
			if (bs[i] == '1') != ((v>>uint(pos))&1 == 1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Both predicates print as the text storage parses back to the same tree —
// an s3http backend runs what in-process storage runs — with the key quoted
// when its name needs it (a keyword here).
func TestPredicatesPrintAsTheirTrees(t *testing.T) {
	f := New(50, 0.01, rand.New(rand.NewSource(21)))
	for i := int64(0); i < 50; i++ {
		f.Add(i * 5)
	}
	key := &sqlparse.Column{Name: "order"}
	for _, pred := range []sqlparse.Expr{f.SQLPredicate(key), f.SQLPredicateBitwise(key)} {
		text := pred.String()
		if !strings.Contains(text, `CAST("order" AS INT)`) {
			t.Errorf("the key prints unquoted: %.80s…", text)
		}
		back, err := sqlparse.ParseExpr(text)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, pred) {
			t.Errorf("%.80s… parses to another tree", text)
		}
		ev := bindX(t, "order", pred)
		for x := int64(0); x < 300; x++ {
			got, err := ev.EvalBool(pred, []value.Value{value.Int(x)})
			if err != nil {
				t.Fatal(err)
			}
			if got != f.Contains(x) {
				t.Fatalf("%.40s…: predicate and Contains disagree at %d", text, x)
			}
		}
	}
}
