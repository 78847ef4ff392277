package sqlparse

// MaxExprDepth is the parser's nesting cap, for the external fuzz target.
const MaxExprDepth = maxExprDepth
