package expr

import (
	"math"
	"math/big"
	"math/rand"
	"testing"

	"pushdowndb/internal/race"
	"pushdowndb/internal/sqlparse"
	"pushdowndb/internal/value"
)

// exactSum is the float64 nearest the exact sum of vals, ties to even, by
// big.Float alone: the rule AggState's SUM must keep however it
// accumulates.
func exactSum(vals []value.Value) float64 {
	var sum big.Float
	sum.SetPrec(sumPrec)
	var nan bool
	inf := 0
	for _, v := range vals {
		var x big.Float
		if v.Kind() == value.KindInt {
			x.SetInt64(v.AsInt())
		} else {
			f := v.AsFloat()
			switch {
			case math.IsNaN(f):
				nan = true
				continue
			case math.IsInf(f, 0):
				s := int(math.Copysign(1, f))
				nan = nan || inf != 0 && inf != s
				inf = s
				continue
			}
			x.SetFloat64(f)
		}
		sum.Add(&sum, &x)
	}
	switch {
	case nan:
		return math.NaN()
	case inf != 0:
		return math.Inf(inf)
	}
	f, _ := sum.Float64()
	return f
}

// sumInputs is a random run of SUM inputs from one of several shapes: money
// amounts, their products with rates, values across the whole exponent
// range, huge values that cancel, subnormals, large integers and the odd
// NaN or infinity.
func sumInputs(r *rand.Rand) []value.Value {
	n := r.Intn(200)
	if r.Intn(4) == 0 {
		n = r.Intn(5000) // long enough for the expansion to fill and compress
	}
	shape := r.Intn(7)
	out := make([]value.Value, n)
	for i := range out {
		var f float64
		switch shape {
		case 0:
			f = float64(r.Intn(10_000_000)) / 100
		case 1:
			f = float64(r.Intn(10_000_000)) / 100 * (1 - float64(r.Intn(11))/100) * (1 + float64(r.Intn(9))/100)
		case 2:
			f = math.Ldexp(r.Float64(), r.Intn(2000)-1000)
		case 3:
			f = math.Ldexp(1+r.Float64(), 1020+r.Intn(3))
		case 4:
			f = math.Float64frombits(uint64(r.Int63n(1 << 52)))
		case 5:
			out[i] = value.Int(r.Int63() >> r.Intn(63))
			if r.Intn(2) == 0 {
				out[i] = value.Int(-out[i].AsInt())
			}
			continue
		case 6:
			f = []float64{1, 1e16, 1e-16, -1e16, 0.1, math.Inf(1), math.Inf(-1), math.NaN(), -0.0, 0x1p-1074}[r.Intn(10)]
		}
		if r.Intn(2) == 0 {
			f = -f
		}
		if r.Intn(10) == 0 {
			out[i] = value.Int(int64(r.Intn(1000) - 500))
			continue
		}
		out[i] = value.Float(f)
	}
	return out
}

// TestFloatSumRoundsTheExactSum: over random inputs, a SUM fed them in one
// run, and one merged from runs cut at random places, both answer the
// float64 nearest the inputs' exact sum — as big.Float alone rounds it —
// bit for bit, whether the sum stayed an expansion or spilled.
func TestFloatSumRoundsTheExactSum(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := range 3000 {
		vals := sumInputs(r)
		want := exactSum(vals)
		one := NewAggState(sqlparse.AggSum)
		merged := NewAggState(sqlparse.AggSum)
		part := NewAggState(sqlparse.AggSum)
		for _, v := range vals {
			if err := one.Add(v); err != nil {
				t.Fatal(err)
			}
			if err := part.Add(v); err != nil {
				t.Fatal(err)
			}
			if r.Intn(8) == 0 {
				if err := merged.Merge(part); err != nil {
					t.Fatal(err)
				}
				part = NewAggState(sqlparse.AggSum)
			}
		}
		if err := merged.Merge(part); err != nil {
			t.Fatal(err)
		}
		if len(vals) == 0 {
			continue
		}
		for name, a := range map[string]*AggState{"one run": one, "merged": merged} {
			got := a.Final()
			if got.Kind() == value.KindInt {
				got = value.Float(float64(got.AsInt()))
				if exact := exactSum(vals); !allInts(vals) || got.AsFloat() != exact {
					continue // an all-integer SUM stays an integer; no float rule to check
				}
			}
			if g := got.AsFloat(); math.Float64bits(g) != math.Float64bits(want) && !(math.IsNaN(g) && math.IsNaN(want)) {
				t.Fatalf("trial %d, %s: SUM of %d values = %v (%#x), want %v (%#x)", trial, name, len(vals), g, math.Float64bits(g), want, math.Float64bits(want))
			}
		}
	}
}

func allInts(vals []value.Value) bool {
	for _, v := range vals {
		if v.Kind() != value.KindInt {
			return false
		}
	}
	return true
}

// TestFloatSumOfEverydayValuesDoesNotAllocate: a SUM of money amounts, and
// of their products with rates, holds its exact sum in the expansion and
// allocates nothing, however many values it adds.
func TestFloatSumOfEverydayValuesDoesNotAllocate(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts differ under the race detector")
	}
	r := rand.New(rand.NewSource(2))
	vals := make([]value.Value, 10_000)
	for i := range vals {
		vals[i] = value.Float(float64(r.Intn(10_000_000)) / 100 * (1 - float64(r.Intn(11))/100) * (1 + float64(r.Intn(9))/100))
	}
	var sum *AggState
	if n := testing.AllocsPerRun(10, func() {
		sum = NewAggState(sqlparse.AggSum)
		for _, v := range vals {
			_ = sum.Add(v)
		}
	}); n > 1 {
		t.Errorf("a SUM of %d values allocates %v times, want 1 (the state)", len(vals), n)
	}
	if sum.spilled != nil {
		t.Errorf("the sum spilled out of its expansion")
	}
}
