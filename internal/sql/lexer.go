// Package sql implements a SQL subset over the oadms engine: a lexer,
// recursive-descent parser, and a planner that compiles statements into
// the vectorized operator pipeline with predicate pushdown and column
// pruning. The dialect covers the DDL/DML the CH-benCHmark workload and
// the examples need: CREATE TABLE, INSERT, SELECT (joins, aggregation,
// ordering, limits), UPDATE, and DELETE.
package sql

import (
	"fmt"
	"strings"
	"unicode"
)

// TokKind classifies tokens.
type TokKind int

// Token kinds.
const (
	TokEOF TokKind = iota
	TokIdent
	TokKeyword
	TokNumber
	TokString
	TokSymbol
)

// Token is one lexical unit.
type Token struct {
	Kind TokKind
	Text string // canonical: keywords uppercased
	Pos  int
}

var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "GROUP": true, "BY": true,
	"ORDER": true, "LIMIT": true, "OFFSET": true, "ASC": true, "DESC": true,
	"INSERT": true, "INTO": true, "VALUES": true, "UPDATE": true, "SET": true,
	"DELETE": true, "CREATE": true, "TABLE": true, "PRIMARY": true, "KEY": true,
	"AND": true, "OR": true, "NOT": true, "NULL": true, "IS": true, "IN": true,
	"LIKE": true, "AS": true, "JOIN": true, "INNER": true, "LEFT": true,
	"ON": true, "TRUE": true, "FALSE": true, "COUNT": true, "SUM": true,
	"MIN": true, "MAX": true, "AVG": true, "DISTINCT": true, "HAVING": true,
	"BEGIN": true, "COMMIT": true, "ROLLBACK": true, "MERGE": true,
	"INDEX": true, "EXPLAIN": true,
}

// Lex tokenizes a SQL string.
func Lex(input string) ([]Token, error) {
	var toks []Token
	i := 0
	n := len(input)
	for i < n {
		c := input[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '-' && i+1 < n && input[i+1] == '-':
			for i < n && input[i] != '\n' {
				i++
			}
		case unicode.IsLetter(rune(c)) || c == '_':
			start := i
			for i < n && (unicode.IsLetter(rune(input[i])) || unicode.IsDigit(rune(input[i])) || input[i] == '_') {
				i++
			}
			word := input[start:i]
			up := strings.ToUpper(word)
			if keywords[up] {
				toks = append(toks, Token{Kind: TokKeyword, Text: up, Pos: start})
			} else {
				toks = append(toks, Token{Kind: TokIdent, Text: word, Pos: start})
			}
		case unicode.IsDigit(rune(c)) || (c == '.' && i+1 < n && unicode.IsDigit(rune(input[i+1]))):
			start := i
			seenDot := false
			for i < n && (unicode.IsDigit(rune(input[i])) || (input[i] == '.' && !seenDot)) {
				if input[i] == '.' {
					seenDot = true
				}
				i++
			}
			toks = append(toks, Token{Kind: TokNumber, Text: input[start:i], Pos: start})
		case c == '\'':
			i++
			var sb strings.Builder
			closed := false
			for i < n {
				if input[i] == '\'' {
					if i+1 < n && input[i+1] == '\'' { // escaped quote
						sb.WriteByte('\'')
						i += 2
						continue
					}
					closed = true
					i++
					break
				}
				sb.WriteByte(input[i])
				i++
			}
			if !closed {
				return nil, fmt.Errorf("sql: unterminated string at %d", i)
			}
			toks = append(toks, Token{Kind: TokString, Text: sb.String(), Pos: i})
		case strings.ContainsRune("(),*=+-/%.;?", rune(c)):
			toks = append(toks, Token{Kind: TokSymbol, Text: string(c), Pos: i})
			i++
		case c == '<':
			if i+1 < n && (input[i+1] == '=' || input[i+1] == '>') {
				toks = append(toks, Token{Kind: TokSymbol, Text: input[i : i+2], Pos: i})
				i += 2
			} else {
				toks = append(toks, Token{Kind: TokSymbol, Text: "<", Pos: i})
				i++
			}
		case c == '>':
			if i+1 < n && input[i+1] == '=' {
				toks = append(toks, Token{Kind: TokSymbol, Text: ">=", Pos: i})
				i += 2
			} else {
				toks = append(toks, Token{Kind: TokSymbol, Text: ">", Pos: i})
				i++
			}
		case c == '!':
			if i+1 < n && input[i+1] == '=' {
				toks = append(toks, Token{Kind: TokSymbol, Text: "<>", Pos: i})
				i += 2
			} else {
				return nil, fmt.Errorf("sql: unexpected '!' at %d", i)
			}
		default:
			return nil, fmt.Errorf("sql: unexpected character %q at %d", c, i)
		}
	}
	toks = append(toks, Token{Kind: TokEOF, Pos: n})
	return toks, nil
}
