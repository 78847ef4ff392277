package sqlparse

import (
	"slices"
	"strings"
)

// NameKey is the one equality of column names: two names are the same when
// their keys are. It does not allocate for a lowercase ASCII name.
func NameKey(name string) string { return strings.ToLower(name) }

// SameName reports whether a and b name the same column.
func SameName(a, b string) bool { return NameKey(a) == NameKey(b) }

// Names resolves column names against one header by the name rule, which
// S3 Select on the storage side and every reader of a header on the server
// share, so the planner may send a name to either side:
//
//  1. A name denotes the first header column it is the SameName as.
//  2. Failing that, _N (1 ≤ N ≤ width) denotes the N-th column: S3 Select's
//     positional names.
//  3. Otherwise the column is unknown.
//
// Build it once per header: it allocates only for a header name that is not
// its own key, and Index allocates nothing for a lowercase ASCII name.
type Names struct {
	keys []string // the header's NameKeys, in header order
}

// NewNames builds the resolver of header.
func NewNames(header []string) Names {
	keys, copied := header, false
	for i, h := range header {
		if k := NameKey(h); k != h {
			if !copied {
				keys, copied = slices.Clone(header), true
			}
			keys[i] = k
		}
	}
	return Names{keys: keys}
}

// Index returns the position of the column name denotes, or -1.
func (n Names) Index(name string) int {
	key := NameKey(name)
	for i, k := range n.keys {
		if k == key {
			return i
		}
	}
	// _N: N at most the width.
	if !Positional(name) {
		return -1
	}
	pos := 0
	for _, c := range name[1:] {
		if pos = pos*10 + int(c-'0'); pos > len(n.keys) {
			return -1
		}
	}
	return pos - 1
}

// Positional reports whether name is shaped as _N: an underscore, then
// digits with no leading zero. Unless a header column has the name, it
// denotes the N-th column, so what it denotes moves with the header's
// width and order.
func Positional(name string) bool {
	return len(name) >= 2 && name[0] == '_' && name[1] != '0' && strings.Trim(name[1:], "0123456789") == ""
}
