package sqlparse

import (
	"strconv"
	"strings"
	"testing"

	"pushdowndb/internal/race"
)

// ruleIndex reads the name rule literally: the first header column equal to
// name case-insensitively, else the _N among _1 … _width, else none.
func ruleIndex(header []string, name string) int {
	for i, h := range header {
		if strings.ToLower(h) == strings.ToLower(name) {
			return i
		}
	}
	for n := 1; n <= len(header); n++ {
		if name == "_"+strconv.Itoa(n) {
			return n - 1
		}
	}
	return -1
}

func TestNamesRule(t *testing.T) {
	for _, c := range []struct {
		header []string
		name   string
		want   int
	}{
		{[]string{"k", "v", "K", "_1"}, "K", 0},           // the first match, not the exact one
		{[]string{"k", "v", "K", "_1"}, "_1", 3},          // a header name before a position
		{[]string{"k", "v", "K", "_1"}, "_3", 2},          // a position, failing a name
		{[]string{"k", "v", "K", "_1"}, "_5", -1},         // past the width
		{[]string{"k", "v"}, "_02", -1},                   // no leading zero
		{[]string{"k", "v"}, "_0", -1},                    // positions count from 1
		{[]string{"σ", "v"}, "Σ", 0},                      // Σ lowers to σ
		{[]string{"σ", "v"}, "ς", -1},                     // ς does not
		{[]string{"", "v"}, "", 0},                        // an empty name is a name
		{nil, "_1", -1},                                   // no header, no columns
		{[]string{"a", "b"}, "_+1", -1},                   // digits only
		{[]string{"K"}, "k", 0},                           // either side may carry the case
		{[]string{"a", "A"}, "a", 0},                      // duplicates: the first
		{[]string{"_2", "x"}, "_2", 0},                    // a name, although a valid position
		{[]string{"x", "y"}, "_18446744073709551617", -1}, // no overflow wraps into range
	} {
		if got := NewNames(c.header).Index(c.name); got != c.want {
			t.Errorf("NewNames(%q).Index(%q) = %d, want %d", c.header, c.name, got, c.want)
		}
		if got := ruleIndex(c.header, c.name); got != c.want {
			t.Errorf("ruleIndex(%q, %q) = %d, want %d", c.header, c.name, got, c.want)
		}
	}
}

// FuzzColumnNames holds the resolver to a literal reading of the rule over
// random headers: names that differ only in case, _N names, empty and
// non-ASCII names. The header is header split at commas.
func FuzzColumnNames(f *testing.F) {
	for _, s := range [][2]string{
		{"k,v,K,_1", "K"}, {"k,v,K,_1", "_1"}, {"k,v,K,_1", "_3"}, {"a,_1", "_2"},
		{"σ,v", "Σ"}, {"σ,v", "ς"}, {"Σ,σ,ς", "ς"}, {",x", ""}, {"x,", "_2"},
		{"İ,i", "I"}, {"K,k", "K"}, {"a,b", "_02"}, {"ǅ,ǆ", "Ǆ"}, {"\xff,a", "\xff"},
	} {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, header, name string) {
		cols := strings.Split(header, ",")
		names := NewNames(cols)
		if got, want := names.Index(name), ruleIndex(cols, name); got != want {
			t.Fatalf("NewNames(%q).Index(%q) = %d, want %d", cols, name, got, want)
		}
		for i, c := range cols {
			if got, want := names.Index(c), ruleIndex(cols, c); got != want || got > i {
				t.Fatalf("NewNames(%q).Index(%q) = %d, want %d, at most %d", cols, c, got, want, i)
			}
		}
	})
}

// TestNamesIndexAllocatesNothing pins Index for lowercase ASCII names — a
// header name, a position, an unknown name — at no allocation: every
// storage and server row lookup runs it.
func TestNamesIndexAllocatesNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts differ under the race detector")
	}
	names := NewNames([]string{"l_orderkey", "l_quantity", "l_extendedprice", "l_shipdate"})
	for _, name := range []string{"l_shipdate", "_2", "nosuch"} {
		if n := testing.AllocsPerRun(100, func() { _ = names.Index(name) }); n != 0 {
			t.Errorf("Index(%q) allocates %v times, want 0", name, n)
		}
	}
}

// TestKeywordLookupAllocatesNothing pins the lexer's keyword lookup at no
// allocation: lexing a statement of lowercase keywords and identifiers,
// numbers and operators (no string literal, whose text is its own), and
// the identifier check a rendering quotes by, each fold the word's case on
// the stack. Lowercase keywords still lex upper-cased.
func TestKeywordLookupAllocatesNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts differ under the race detector")
	}
	const sql = "select l_returnflag, sum(l_quantity) as sum_qty from lineitem where l_quantity <= 24 and l_discount between 0.05 and 0.07 group by l_returnflag"
	lex := func() {
		l := NewLexer(sql)
		for {
			tok, err := l.Next()
			if err != nil || tok.Type == TokEOF {
				return
			}
		}
	}
	if n := testing.AllocsPerRun(100, lex); n != 0 {
		t.Errorf("lexing %q allocates %v times, want 0", sql, n)
	}
	l := NewLexer("select")
	if tok, _ := l.Next(); tok.Type != TokKeyword || tok.Text != "SELECT" {
		t.Errorf("select lexes as %v %q, want the keyword SELECT", tok.Type, tok.Text)
	}
	for _, word := range []string{"l_shipdate", "substring", "timestamps"} {
		if n := testing.AllocsPerRun(100, func() { _ = isPlainIdent(word) }); n != 0 {
			t.Errorf("isPlainIdent(%q) allocates %v times, want 0", word, n)
		}
	}
	for k := range keywords {
		if len(k) > maxKeyword {
			t.Errorf("keyword %s is longer than maxKeyword, %d bytes: the lookup cannot fold it", k, maxKeyword)
		}
	}
	if quoteIdent("substring") != `"substring"` || quoteIdent("timestamps") != "timestamps" {
		t.Errorf("quoteIdent quotes %q and %q, want only the keyword quoted", quoteIdent("substring"), quoteIdent("timestamps"))
	}
}
