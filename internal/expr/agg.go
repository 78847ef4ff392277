package expr

import (
	"fmt"
	"math"
	"math/big"

	"pushdowndb/internal/arena"
	"pushdowndb/internal/sqlparse"
	"pushdowndb/internal/value"
)

// AggState accumulates one aggregate function over a stream of rows.
//
// Float sums accumulate exactly, rounding once at Final, so the result is
// independent of accumulation and merge order — the property the
// partition-parallel scans rely on for byte-identical results however
// their partitions cut the rows. The exact sum is held as a
// short expansion (parts) while it fits one, which costs no allocation, and
// past that in a high-precision big.Float, which holds the exact sum of any
// set of float64s.
type AggState struct {
	fn      sqlparse.AggFunc
	count   int64
	sumI    int64
	parts   [expansionLen]float64 // the exact finite sum, parts[:np], until spilled
	np      int
	spilled *bigSum // the exact finite sum once it left parts, for good
	isFloat bool
	sumNaN  bool // a NaN entered the sum (or infinities of mixed sign)
	sumInf  int  // -1 or +1 once an infinity entered the sum
	minV    value.Value
	maxV    value.Value
	seen    bool
	text    *arena.Text // a RowExec group's: MIN and MAX keep text in it (own)
}

// bigSum is an exact sum in a high-precision big.Float, sums[cur].
type bigSum struct {
	sums [2]big.Float
	cur  int       // which of sums holds it (see add)
	tmp  big.Float // reusable operand
}

// sumPrec comfortably covers the exact sum of float64s: the full exponent
// range (~2098 bits from the smallest subnormal ulp to the largest
// magnitude) plus headroom for the running count.
const sumPrec = 2200

// expansionLen is how many float64s the expansion holds: a sum of values
// within a few dozen binary orders of magnitude of each other needs two or
// three.
const expansionLen = 8

// hugeFloat bounds an expansion's terms: below it, no two-sum of them can
// overflow.
const hugeFloat = 0x1p1020

// promote turns an integer accumulator into the exact float one.
func (a *AggState) promote() {
	a.isFloat = true
	a.addInt(a.sumI)
	a.sumI = 0
}

// addExact adds x, finite, to the exact sum: into the expansion, a
// nonoverlapping sequence of float64s ordered by magnitude whose sum is
// exact (Shewchuk's grow-expansion, as Python's math.fsum keeps it), each
// term by an error-free two-sum; once the expansion is full even
// compressed, or x or its largest term is huge, into a bigSum.
func (a *AggState) addExact(x float64) {
	if a.spilled == nil && a.np == expansionLen {
		a.compress()
	}
	if a.spilled == nil && (a.np == expansionLen || math.Abs(x) >= hugeFloat || a.np > 0 && math.Abs(a.parts[a.np-1]) >= hugeFloat) {
		a.spill()
	}
	if a.spilled != nil {
		a.spilled.add(a.spilled.tmp.SetFloat64(x))
		return
	}
	i := 0
	for _, y := range a.parts[:a.np] {
		if math.Abs(x) < math.Abs(y) {
			x, y = y, x
		}
		hi := x + y
		if lo := y - (hi - x); lo != 0 {
			a.parts[i] = lo
			i++
		}
		x = hi
	}
	a.np = i
	if x != 0 {
		a.parts[i] = x
		a.np++
	}
}

// compress rewrites the expansion with about as few terms as its sum needs
// (Shewchuk's Compress): the same exact sum, nonoverlapping, smallest
// first. Grown one two-sum at a time, an expansion keeps many one-bit
// terms a compressed one folds away.
func (a *AggState) compress() {
	var g [expansionLen]float64
	q, bottom := a.parts[a.np-1], a.np-1
	for i := a.np - 2; i >= 0; i-- {
		hi := q + a.parts[i]
		if lo := a.parts[i] - (hi - q); lo != 0 {
			g[bottom] = hi
			bottom--
			q = lo
		} else {
			q = hi
		}
	}
	n := 0
	for _, top := range g[bottom+1 : a.np] {
		hi := top + q
		if lo := q - (hi - top); lo != 0 {
			a.parts[n] = lo
			n++
		}
		q = hi
	}
	a.parts[n] = q
	a.np = n + 1
}

// addInt adds v to the exact float sum: as a float64 when it is one
// exactly.
func (a *AggState) addInt(v int64) {
	if -1<<53 <= v && v <= 1<<53 {
		a.addExact(float64(v))
		return
	}
	if a.spilled == nil {
		a.spill()
	}
	a.spilled.add(a.spilled.tmp.SetInt64(v))
}

// spill moves the expansion's sum into a bigSum, where the sum stays.
func (a *AggState) spill() {
	b := &bigSum{}
	b.sums[0].SetPrec(sumPrec).SetInt64(0)
	b.sums[1].SetPrec(sumPrec)
	for _, p := range a.parts[:a.np] {
		b.add(b.tmp.SetFloat64(p))
	}
	a.spilled, a.np = b, 0
}

// add adds x to the sum without allocating. big.Float.Add builds a fresh
// mantissa whenever its destination aliases an operand, so the sum
// alternates between the two buffers, each reusing its mantissa's storage
// once that has grown to the sum's width.
func (b *bigSum) add(x *big.Float) {
	b.sums[1-b.cur].Add(&b.sums[b.cur], x)
	b.cur = 1 - b.cur
}

// addFloat folds one float64 into the exact sum, promoting an integer
// accumulator on first use and tracking non-finite inputs separately
// (the exact sums have no NaN, and opposite infinities must yield NaN).
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
	case f != 0:
		a.addExact(f)
	}
}

// floatSum rounds the exact sum to the float64 nearest it, ties to even.
func (a *AggState) floatSum() float64 {
	switch {
	case a.sumNaN:
		return math.NaN()
	case a.sumInf != 0:
		return math.Inf(a.sumInf)
	case a.spilled != nil:
		f, _ := a.spilled.sums[a.spilled.cur].Float64()
		return f
	}
	// As math.fsum rounds its partials: from the largest term down while
	// the sum stays exact, then a half-way case settled by the sign of the
	// terms below.
	n := a.np
	if n == 0 {
		return 0
	}
	n--
	hi, lo := a.parts[n], 0.0
	for n > 0 {
		x, y := hi, a.parts[n-1]
		n--
		hi = x + y
		if lo = y - (hi - x); lo != 0 {
			break
		}
	}
	if n > 0 && (lo < 0 && a.parts[n-1] < 0 || lo > 0 && a.parts[n-1] > 0) {
		y := lo * 2
		if x := hi + y; x-hi == y {
			hi = x
		}
	}
	return hi
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
				a.addInt(v.AsInt())
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
			a.minV = own(v, a.text)
		}
	case sqlparse.AggMax:
		if !a.seen || value.Compare(v, a.maxV) > 0 {
			a.maxV = own(v, a.text)
		}
	}
	a.seen = true
	return nil
}

// own is v with its text copied into text (nil: v): what a block keeps
// across rows must not view an input row, whose bytes may be lent.
func own(v value.Value, text *arena.Text) value.Value {
	if text != nil && v.Kind() == value.KindString {
		return value.Str(text.Own(v.AsString(), 0))
	}
	return v
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
				if b.spilled != nil {
					if a.spilled == nil {
						a.spill()
					}
					a.spilled.add(&b.spilled.sums[b.spilled.cur])
				}
				for _, p := range b.parts[:b.np] {
					a.addExact(p)
				}
				a.sumNaN = a.sumNaN || b.sumNaN
				if b.sumInf != 0 {
					if a.sumInf != 0 && a.sumInf != b.sumInf {
						a.sumNaN = true
					}
					a.sumInf = b.sumInf
				}
			} else {
				a.addInt(b.sumI)
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
