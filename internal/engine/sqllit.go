package engine

import (
	"math"
	"strconv"
	"strings"
)

// sqlQuote renders a string as a SQL literal.
func sqlQuote(s string) string {
	return "'" + strings.ReplaceAll(s, "'", "''") + "'"
}

// sqlLiteral renders a group value for embedding in a CASE/NOT IN clause
// or a top-K threshold predicate: bare only when the text round-trips
// canonically as a SQL numeric literal, quoted otherwise. Values that
// merely parse as numbers are not safe bare: "00501" would re-render as
// 501 and stop matching the stored zip-code text, and "NaN"/"Inf"/"0x1p2"
// would be misread as identifiers or fail to parse at all.
func sqlLiteral(s string) string {
	if i, err := strconv.ParseInt(s, 10, 64); err == nil && strconv.FormatInt(i, 10) == s {
		return s
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil &&
		!math.IsNaN(f) && !math.IsInf(f, 0) &&
		strconv.FormatFloat(f, 'f', -1, 64) == s {
		return s
	}
	return sqlQuote(s)
}
