// Package bloom implements the Bloom filter PushdownDB ships to S3 in
// Bloom joins (Section V of the paper).
//
// The filter uses universal hashing, h_{a,b}(x) = ((a*x + b) mod n) mod m,
// because S3 Select supports only arithmetic operators (Section V-A1). The
// number of hash functions and bit-array length for a target false-positive
// rate p over s elements follow the paper's formulas:
//
//	k_p = log2(1/p),   m_p = s * |ln p| / (ln 2)^2
//
// Since S3 Select has neither bitwise operators nor binary data, the filter
// can be rendered as a string of '0'/'1' characters probed with SUBSTRING
// (the paper's Listing 1). SQLPredicate builds exactly that encoding as an
// expression; SQLPredicateBitwise builds the compact BLOOM_CONTAINS form of
// the paper's Suggestion 3 for the ablation benchmarks.
package bloom

import (
	"math"
	"math/rand"
	"strings"

	"pushdowndb/internal/sqlparse"
	"pushdowndb/internal/value"
)

// Filter is a Bloom filter over int64 keys.
type Filter struct {
	bits   []byte // bit i = bits[i/8] >> (i%8)
	m      int64  // bit-array length
	n      int64  // hash modulus: smallest prime >= max(m, 2)
	hashes [][2]int64
}

// Params reports the k and m the paper's formulas give for s elements at
// false-positive rate p.
func Params(s int, p float64) (k int, m int64) {
	if p <= 0 || p >= 1 {
		panic("bloom: false positive rate must be in (0,1)")
	}
	k = int(math.Ceil(math.Log2(1 / p)))
	if k < 1 {
		k = 1
	}
	m = int64(math.Ceil(float64(s) * math.Abs(math.Log(p)) / (math.Ln2 * math.Ln2)))
	if m < 8 {
		m = 8
	}
	return k, m
}

// New builds a filter sized for expected elements at target FPR p. The rng
// seeds the universal hash coefficients; pass a deterministic source for
// reproducible SQL.
func New(expected int, p float64, rng *rand.Rand) *Filter {
	k, m := Params(expected, p)
	// The paper only requires n prime and >= m. Using n barely above m
	// makes ((a*x+b) mod n) mod m badly correlated for sequential keys
	// (TPC-H keys are sequential), inflating the realized FPR well above
	// p; a much larger prime washes the stride structure out while
	// keeping the identical SQL shape.
	n := nextPrime(maxInt64(64*m, 1<<20))
	f := &Filter{
		bits: make([]byte, (m+7)/8),
		m:    m,
		n:    n,
	}
	for i := 0; i < k; i++ {
		a := rng.Int63n(n-1) + 1 // a != 0
		b := rng.Int63n(n)
		f.hashes = append(f.hashes, [2]int64{a, b})
	}
	return f
}

// K returns the number of hash functions.
func (f *Filter) K() int { return len(f.hashes) }

func (f *Filter) pos(h [2]int64, x int64) int64 {
	p := ((h[0]*x + h[1]) % f.n) % f.m
	if p < 0 {
		p += f.m
	}
	return p
}

// Add inserts x.
func (f *Filter) Add(x int64) {
	for _, h := range f.hashes {
		p := f.pos(h, x)
		f.bits[p/8] |= 1 << uint(p%8)
	}
}

// Contains reports whether x may be in the set (no false negatives).
func (f *Filter) Contains(x int64) bool {
	for _, h := range f.hashes {
		p := f.pos(h, x)
		if f.bits[p/8]&(1<<uint(p%8)) == 0 {
			return false
		}
	}
	return true
}

// BitString renders the bit array as the '0'/'1' text S3 Select probes with
// SUBSTRING (position i+1 corresponds to bit i).
func (f *Filter) BitString() string {
	var b strings.Builder
	b.Grow(int(f.m))
	for i := int64(0); i < f.m; i++ {
		if f.bits[i/8]&(1<<uint(i%8)) != 0 {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}

// SQLPredicate is the paper's Listing-1 predicate over key, an integer
// column: one probe per hash function, ANDed left to right,
//
//	SUBSTRING('<bits>', ((a * CAST(key AS INT) + b) % n) % m + 1, 1) = '1'
//
// — the tree this parser reads that text as, so storage meters the nodes
// the cost model prices. The probes share the bit string, n, m and the key.
func (f *Filter) SQLPredicate(key *sqlparse.Column) sqlparse.Expr {
	bits, one, set := lit(value.Str(f.BitString())), lit(value.Int(1)), lit(value.Str("1"))
	n, m, x := lit(value.Int(f.n)), lit(value.Int(f.m)), &sqlparse.Cast{X: key, To: value.KindInt}
	bin := func(op sqlparse.BinaryOp, l, r sqlparse.Expr) sqlparse.Expr {
		return &sqlparse.Binary{Op: op, L: l, R: r}
	}
	probes := make([]sqlparse.Expr, len(f.hashes))
	for i, h := range f.hashes {
		hx := bin(sqlparse.OpAdd, bin(sqlparse.OpMul, lit(value.Int(h[0])), x), lit(value.Int(h[1])))
		pos := bin(sqlparse.OpAdd, bin(sqlparse.OpMod, bin(sqlparse.OpMod, hx, n), m), one)
		probes[i] = bin(sqlparse.OpEq, &sqlparse.Call{Name: "SUBSTRING", Args: []sqlparse.Expr{bits, pos, one}}, set)
	}
	return sqlparse.AndAll(probes)
}

// SQLPredicateBitwise is the Suggestion-3 BLOOM_CONTAINS form over key: the
// bit array hex-encoded once, probed with all hash functions in a single
// call, BLOOM_CONTAINS('<hex>', m, n, a1, b1, …, CAST(key AS INT)). Requires
// selectengine Capabilities.AllowBloomContains.
func (f *Filter) SQLPredicateBitwise(key *sqlparse.Column) sqlparse.Expr {
	args := []sqlparse.Expr{lit(value.Str(hexEncode(f.bits))), lit(value.Int(f.m)), lit(value.Int(f.n))}
	for _, h := range f.hashes {
		args = append(args, lit(value.Int(h[0])), lit(value.Int(h[1])))
	}
	args = append(args, &sqlparse.Cast{X: key, To: value.KindInt})
	return &sqlparse.Call{Name: "BLOOM_CONTAINS", Args: args}
}

func lit(v value.Value) *sqlparse.Literal { return &sqlparse.Literal{Val: v} }

const hexDigits = "0123456789abcdef"

func hexEncode(bs []byte) string {
	out := make([]byte, 2*len(bs))
	for i, x := range bs {
		out[2*i] = hexDigits[x>>4]
		out[2*i+1] = hexDigits[x&0x0f]
	}
	return string(out)
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// nextPrime returns the smallest prime >= x (x >= 2).
func nextPrime(x int64) int64 {
	if x < 2 {
		return 2
	}
	for {
		if isPrime(x) {
			return x
		}
		x++
	}
}

func isPrime(x int64) bool {
	if x < 2 {
		return false
	}
	if x%2 == 0 {
		return x == 2
	}
	for d := int64(3); d*d <= x; d += 2 {
		if x%d == 0 {
			return false
		}
	}
	return true
}

// PredicateSizeEstimate estimates the SQL predicate bytes for s elements
// at FPR p: the m-character bit string plus ~96 bytes of arithmetic per
// hash probe. (The bit string is counted once: Fig. 4 of the paper runs
// FPR 1e-4 over ~6.8k build keys, which only fits the 256 KB limit under
// single-copy accounting.)
func PredicateSizeEstimate(s int, p float64) int64 {
	k, m := Params(s, p)
	return m + int64(k)*96
}

// DegradeFPR returns the smallest power-of-two multiple of targetFPR whose
// predicate for s elements fits maxSQLBytes — the Section V-B1 behaviour.
// ok is false when no FPR below 0.9 fits (the caller must fall back to a
// filtered join).
func DegradeFPR(s int, targetFPR float64, maxSQLBytes int) (fpr float64, ok bool) {
	const maxFPR = 0.9
	for fpr = targetFPR; fpr < maxFPR; fpr *= 2 {
		if PredicateSizeEstimate(s, fpr) <= int64(maxSQLBytes) {
			return fpr, true
		}
	}
	return fpr, false
}

// Fit builds a filter for keys whose string-encoded predicate over key
// (SQLPredicate) prints within maxSQLBytes, starting at the target FPR and
// degrading it (doubling) as needed — the behaviour Section V-B1 describes.
// When even FPR maxFPR cannot fit, Fit returns ok=false and the caller must
// fall back to a filtered join. The returned fpr is the rate actually used.
func Fit(keys []int64, targetFPR float64, key *sqlparse.Column, maxSQLBytes int, rng *rand.Rand) (f *Filter, pred sqlparse.Expr, fpr float64, ok bool) {
	fpr, ok = DegradeFPR(len(keys), targetFPR, maxSQLBytes)
	if !ok {
		return nil, nil, fpr, false
	}
	for fpr < 0.9 {
		f = New(len(keys), fpr, rng)
		for _, k := range keys {
			f.Add(k)
		}
		pred = f.SQLPredicate(key)
		if len(pred.String()) <= maxSQLBytes {
			return f, pred, fpr, true
		}
		fpr *= 2
	}
	return nil, nil, fpr, false
}
