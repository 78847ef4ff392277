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

// keywords reserved by the dialect. Identifiers matching these (case
// insensitively) lex as TokKeyword.
var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "GROUP": true, "BY": true,
	"ORDER": true, "LIMIT": true, "AS": true, "AND": true, "OR": true,
	"NOT": true, "IN": true, "LIKE": true, "BETWEEN": true, "IS": true,
	"NULL": true, "TRUE": true, "FALSE": true, "CASE": true, "WHEN": true,
	"THEN": true, "ELSE": true, "END": true, "CAST": true, "ASC": true,
	"DESC": true, "SUM": true, "COUNT": true, "MIN": true, "MAX": true,
	"AVG": true, "SUBSTRING": true, "DATE": true, "INT": true,
	"INTEGER": true, "FLOAT": true, "DECIMAL": true, "STRING": true,
	"BOOL": true, "TIMESTAMP": true, "UTCNOW": true, "DISTINCT": true,
	"HAVING": true, "ESCAPE": true, "EXTRACT": true, "JOIN": true,
	"INNER": true, "ON": true, "LEFT": true, "RIGHT": true, "FULL": true,
	"OUTER": true, "CROSS": true,
}

// Note: CREATE, DROP and INDEX are deliberately NOT reserved. They only
// matter at the very front of a statement (ParseStatement matches them
// contextually), and reserving them would break queries over tables with
// an "index" column — a common name in exported datasets.
