package expr

import (
	"fmt"
	"math"
	"math/big"

	"pushdowndb/internal/sqlparse"
	"pushdowndb/internal/value"
)

// AggState accumulates one aggregate function over a stream of rows.
//
// Float sums accumulate exactly (a high-precision big.Float holds the
// exact sum of any set of float64s, rounding once at Final), so the
// result is independent of accumulation and merge order — the property
// the worker-parallel operators and partition-parallel scans rely on for
// byte-identical results at any parallelism.
type AggState struct {
	fn      sqlparse.AggFunc
	count   int64
	sumI    int64
	sums    [2]big.Float // the exact finite sum, sums[cur], once a float arrives
	cur     int          // which of sums holds it (see accumulate)
	tmp     big.Float    // reusable operand
	isFloat bool
	sumNaN  bool // a NaN entered the sum (or infinities of mixed sign)
	sumInf  int  // -1 or +1 once an infinity entered the sum
	minV    value.Value
	maxV    value.Value
	seen    bool
}

// sumPrec comfortably covers the exact sum of float64s: the full exponent
// range (~2098 bits from the smallest subnormal ulp to the largest
// magnitude) plus headroom for the running count.
const sumPrec = 2200

// promote turns an integer accumulator into the exact float one.
func (a *AggState) promote() {
	a.isFloat = true
	a.sums[0].SetPrec(sumPrec).SetInt64(a.sumI)
	a.sums[1].SetPrec(sumPrec)
	a.sumI = 0
}

// accumulate adds x to the exact sum without allocating. big.Float.Add
// builds a fresh mantissa whenever its destination aliases an operand, so
// the sum alternates between the two buffers, each reusing its mantissa's
// storage once that has grown to the sum's width.
func (a *AggState) accumulate(x *big.Float) {
	a.sums[1-a.cur].Add(&a.sums[a.cur], x)
	a.cur = 1 - a.cur
}

// addFloat folds one float64 into the exact sum, promoting an integer
// accumulator on first use and tracking non-finite inputs separately
// (big.Float has no NaN, and opposite infinities must yield NaN).
func (a *AggState) addFloat(f float64) {
	if !a.isFloat {
		a.promote()
	}
	switch {
	case math.IsNaN(f):
		a.sumNaN = true
	case math.IsInf(f, 0):
		s := 1
		if f < 0 {
			s = -1
		}
		if a.sumInf != 0 && a.sumInf != s {
			a.sumNaN = true
		}
		a.sumInf = s
	default:
		a.accumulate(a.tmp.SetFloat64(f))
	}
}

// floatSum rounds the exact accumulator to the float64 result.
func (a *AggState) floatSum() float64 {
	switch {
	case a.sumNaN:
		return math.NaN()
	case a.sumInf != 0:
		return math.Inf(a.sumInf)
	default:
		f, _ := a.sums[a.cur].Float64()
		return f
	}
}

// NewAggState returns an accumulator for fn.
func NewAggState(fn sqlparse.AggFunc) *AggState { return &AggState{fn: fn} }

// Add folds one input value into the accumulator. NULLs are ignored, per
// SQL semantics (COUNT(*) callers pass a non-NULL marker).
func (a *AggState) Add(v value.Value) error {
	if v.IsNull() {
		return nil
	}
	a.count++
	switch a.fn {
	case sqlparse.AggCount:
		return nil
	case sqlparse.AggSum, sqlparse.AggAvg:
		switch v.Kind() {
		case value.KindInt:
			if a.isFloat {
				a.accumulate(a.tmp.SetInt64(v.AsInt()))
			} else {
				a.sumI += v.AsInt()
			}
		case value.KindFloat:
			a.addFloat(v.AsFloat())
		case value.KindString:
			f, err := value.CastFloat(v)
			if err != nil {
				return fmt.Errorf("expr: SUM over non-numeric %q", v.AsString())
			}
			a.addFloat(f.AsFloat())
		default:
			return fmt.Errorf("expr: SUM over %s", v.Kind())
		}
	case sqlparse.AggMin:
		if !a.seen || value.Compare(v, a.minV) < 0 {
			a.minV = v
		}
	case sqlparse.AggMax:
		if !a.seen || value.Compare(v, a.maxV) > 0 {
			a.maxV = v
		}
	}
	a.seen = true
	return nil
}

// Merge combines another accumulator of the same function (used when
// partition-parallel scans each keep a local state).
func (a *AggState) Merge(b *AggState) error {
	if a.fn != b.fn {
		return fmt.Errorf("expr: merging mismatched aggregates")
	}
	a.count += b.count
	switch a.fn {
	case sqlparse.AggSum, sqlparse.AggAvg:
		if b.isFloat && !a.isFloat {
			a.promote()
		}
		if a.isFloat {
			if b.isFloat {
				a.accumulate(&b.sums[b.cur])
				a.sumNaN = a.sumNaN || b.sumNaN
				if b.sumInf != 0 {
					if a.sumInf != 0 && a.sumInf != b.sumInf {
						a.sumNaN = true
					}
					a.sumInf = b.sumInf
				}
			} else {
				a.accumulate(a.tmp.SetInt64(b.sumI))
			}
		} else {
			a.sumI += b.sumI
		}
	case sqlparse.AggMin:
		if b.seen && (!a.seen || value.Compare(b.minV, a.minV) < 0) {
			a.minV = b.minV
		}
	case sqlparse.AggMax:
		if b.seen && (!a.seen || value.Compare(b.maxV, a.maxV) > 0) {
			a.maxV = b.maxV
		}
	}
	if b.seen {
		a.seen = true
	}
	return nil
}

// Final returns the aggregate result. Empty input yields NULL for all
// functions except COUNT, which yields 0.
func (a *AggState) Final() value.Value {
	switch a.fn {
	case sqlparse.AggCount:
		return value.Int(a.count)
	case sqlparse.AggSum:
		if a.count == 0 {
			return value.Null()
		}
		if a.isFloat {
			return value.Float(a.floatSum())
		}
		return value.Int(a.sumI)
	case sqlparse.AggAvg:
		if a.count == 0 {
			return value.Null()
		}
		s := float64(a.sumI)
		if a.isFloat {
			s = a.floatSum()
		}
		return value.Float(s / float64(a.count))
	case sqlparse.AggMin:
		if !a.seen {
			return value.Null()
		}
		return a.minV
	case sqlparse.AggMax:
		if !a.seen {
			return value.Null()
		}
		return a.maxV
	}
	return value.Null()
}

// CollectAggregates extracts every Aggregate node under the given
// expressions, in evaluation order. The same node appearing twice (shared
// subtree) is returned once. An aggregate's argument is not searched.
func CollectAggregates(exprs []sqlparse.Expr) []*sqlparse.Aggregate {
	var out []*sqlparse.Aggregate
	seen := map[*sqlparse.Aggregate]bool{}
	for _, e := range exprs {
		sqlparse.Walk(e, func(n sqlparse.Expr) bool {
			a, isAgg := n.(*sqlparse.Aggregate)
			if isAgg && !seen[a] {
				seen[a] = true
				out = append(out, a)
			}
			return !isAgg
		})
	}
	return out
}
