// Package sqlparse implements a lexer and recursive-descent parser for the
// SQL dialect used throughout PushdownDB. The dialect is a superset of what
// AWS S3 Select accepts: the select engine (internal/selectengine) enforces
// the S3 Select restrictions (no GROUP BY / ORDER BY / JOIN, single table,
// 256 KB expression limit) at execution time, while PushdownDB's own local
// executor uses the full grammar.
package sqlparse

import "fmt"

// TokenType classifies a lexical token.
type TokenType uint8

// Token types.
const (
	TokEOF TokenType = iota
	TokIdent
	TokNumber
	TokString
	TokOp      // punctuation and operators: ( ) , * + - / % = != <> < <= > >= .
	TokKeyword // reserved word, normalized to upper case
)

func (t TokenType) String() string {
	switch t {
	case TokEOF:
		return "EOF"
	case TokIdent:
		return "identifier"
	case TokNumber:
		return "number"
	case TokString:
		return "string"
	case TokOp:
		return "operator"
	case TokKeyword:
		return "keyword"
	default:
		return fmt.Sprintf("TokenType(%d)", uint8(t))
	}
}

// Token is a single lexical token with its source position (byte offset).
type Token struct {
	Type TokenType
	Text string // keywords upper-cased; strings unquoted and unescaped
	Pos  int
}

func (t Token) String() string {
	if t.Type == TokEOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.Text)
}

// keywords reserved by the dialect, each mapping to its own spelling.
// Identifiers matching these (case insensitively) lex as TokKeyword.
var keywords = func() map[string]string {
	m := map[string]string{}
	for _, k := range []string{
		"SELECT", "FROM", "WHERE", "GROUP", "BY", "ORDER", "LIMIT", "AS", "AND", "OR",
		"NOT", "IN", "LIKE", "BETWEEN", "IS", "NULL", "TRUE", "FALSE", "CASE", "WHEN",
		"THEN", "ELSE", "END", "CAST", "ASC", "DESC", "SUM", "COUNT", "MIN", "MAX",
		"AVG", "SUBSTRING", "DATE", "INT", "INTEGER", "FLOAT", "DECIMAL", "STRING",
		"BOOL", "TIMESTAMP", "UTCNOW", "DISTINCT", "HAVING", "ESCAPE", "EXTRACT", "JOIN",
		"INNER", "ON", "LEFT", "RIGHT", "FULL", "OUTER", "CROSS",
	} {
		m[k] = k
	}
	return m
}()

// maxKeyword is the length of the longest keyword.
const maxKeyword = len("SUBSTRING")

// keyword is the keyword word spells in any case, in its table spelling, or
// "" for none. word is upper-cased into a stack buffer, and a map index by
// a converted byte slice does not allocate, so neither does keyword.
func keyword(word string) string {
	var buf [maxKeyword]byte
	if len(word) > len(buf) {
		return ""
	}
	for i := 0; i < len(word); i++ {
		c := word[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		buf[i] = c
	}
	return keywords[string(buf[:len(word)])]
}

// Note: CREATE, DROP and INDEX are deliberately NOT reserved. They only
// matter at the very front of a statement (ParseStatement matches them
// contextually), and reserving them would break queries over tables with
// an "index" column — a common name in exported datasets.
