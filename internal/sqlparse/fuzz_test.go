package sqlparse_test

import (
	"strings"
	"testing"

	"pushdowndb/internal/selectengine"
	"pushdowndb/internal/sqlparse"
)

// FuzzParseRoundTrip checks the parser/printer pair: anything that parses
// must print to SQL that re-parses, and the canonical form must be a fixed
// point (print → parse → print is the identity). The reparsed statement has
// as many nodes as the printed one (selectengine.CountNodes), which is what
// lets the planner count the storage side's work on its own ASTs instead of
// parsing the SQL it prints. A panic anywhere in the lexer/parser fails the
// target by itself.
func FuzzParseRoundTrip(f *testing.F) {
	seeds := []string{
		"SELECT * FROM S3Object",
		"SELECT a, b AS x FROM t WHERE a > 1 AND b <= 'z' LIMIT 3",
		"SELECT COUNT(*), SUM(v * (1 - d)) AS s FROM t GROUP BY g ORDER BY s DESC, g",
		"SELECT c_mktsegment, COUNT(*) AS n FROM customer GROUP BY c_mktsegment ORDER BY n DESC",
		"SELECT SUM(o.price) AS total FROM cust c JOIN ords o ON c.ck = o.ck WHERE c.bal <= -950",
		"SELECT x FROM a, b WHERE a.k = b.k AND a.v BETWEEN 1 AND 10",
		"SELECT CASE WHEN g = 'a' THEN 1 ELSE 0 END FROM t",
		"SELECT * FROM t WHERE s LIKE 'PROMO%' OR z IN ('00501', '99999')",
		"SELECT * FROM t WHERE v IS NOT NULL AND NOT (q < 3)",
		"SELECT SUBSTRING(s, 1 + MOD(k, 8), 1) FROM t WHERE CAST(v AS INT) = 4",
		"SELECT -x, 'it''s', 1.5e3, .5 FROM t WHERE a <> b",
		"SELECT \"quoted col\" FROM t ORDER BY 1",
		"SELECT * FROM t WHERE " + strings.Repeat("(", 2*sqlparse.MaxExprDepth) + "a = 1" + strings.Repeat(")", 2*sqlparse.MaxExprDepth),
		"SELECT * FROM t WHERE " + strings.Repeat("NOT ", 600) + "a = 1",
		"SELECT " + strings.Repeat("- ", 600) + "a FROM t",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		sel, err := sqlparse.Parse(src)
		if err != nil {
			return // rejecting garbage is fine; panicking or looping is not
		}
		printed := sel.String()
		sel2, err := sqlparse.Parse(printed)
		if err != nil {
			t.Fatalf("canonical form does not re-parse\ninput:  %q\nprinted: %q\nerr: %v", src, printed, err)
		}
		if printed2 := sel2.String(); printed2 != printed {
			t.Fatalf("canonical form is not a fixed point\ninput: %q\nfirst:  %q\nsecond: %q", src, printed, printed2)
		}
		if n, n2 := selectengine.CountNodes(sel), selectengine.CountNodes(sel2); n != n2 {
			t.Fatalf("%q has %d nodes, its printed form %q %d", src, n, printed, n2)
		}
	})
}
