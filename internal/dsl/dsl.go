// Package dsl parses a small guarded-commands language for defining
// parameterized ring protocols in text files, mirroring the paper's
// Dijkstra-style notation. It lets the CLI tools verify and synthesize
// protocols without writing Go.
//
// Example (binary agreement, Example 5.2 of the paper):
//
//	protocol agreement
//	domain 2
//	window -1 0
//	legit x[-1] == x[0]
//
//	action t01: x[-1] == 1 && x[0] == 0 -> x[0] := 1
//	action t10: x[-1] == 0 && x[0] == 1 -> x[0] := 0
//
// Example (maximal matching fragment with named values):
//
//	protocol matching
//	domain values left self right
//	window -1 1
//	legit (x[0] == right && x[1] == left) || (x[-1] == right && x[0] == left) ||
//	      (x[-1] == left && x[0] == self && x[1] == right)
//	action A1: x[-1] == left && x[0] != self && x[1] == right -> x[0] := self
//
// Grammar (line oriented; '#' starts a comment; a trailing '||', '&&' or
// ',' continues onto the next line):
//
//	file     = { stmt }
//	stmt     = "protocol" NAME
//	         | "domain" INT | "domain" "values" NAME {NAME}
//	         | "window" INT INT
//	         | "legit" expr
//	         | "action" NAME ":" expr "->" assign {"|" assign}
//	assign   = "x[0]" ":=" expr
//	expr     = or-expr with ||, &&, !, comparisons (== != < <= > >=),
//	           arithmetic (+ - * %), integers, value names, x[OFFSET]
package dsl

import (
	"fmt"
	"strings"
)

// token kinds.
type tokKind int

const (
	tokEOF tokKind = iota
	tokName
	tokInt
	tokPunct // one of ( ) [ ] : , | and multi-char operators
)

type token struct {
	kind tokKind
	text string
	pos  int // byte offset in the logical line, for error messages
}

// lexer tokenizes one logical line.
type lexer struct {
	src  string
	pos  int
	line int
	toks []token
}

var operators = []string{
	":=", "->", "||", "&&", "==", "!=", "<=", ">=",
	"(", ")", "[", "]", ":", ",", "|", "!", "<", ">", "+", "-", "*", "%",
}

// lexLine appends the tokens of one logical line to toks[:0], so a caller
// lexing line after line reuses one token buffer.
func lexLine(toks []token, line string, lineNo int) ([]token, error) {
	l := &lexer{src: line, line: lineNo, toks: toks[:0]}
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\r':
			l.pos++
		case c == '#':
			l.pos = len(l.src)
		case isDigit(c):
			start := l.pos
			for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
				l.pos++
			}
			l.emit(tokInt, l.src[start:l.pos], start)
		case isNameStart(c):
			start := l.pos
			for l.pos < len(l.src) && isNameChar(l.src[l.pos]) {
				l.pos++
			}
			l.emit(tokName, l.src[start:l.pos], start)
		default:
			matched := false
			for _, op := range operators {
				if strings.HasPrefix(l.src[l.pos:], op) {
					l.emit(tokPunct, op, l.pos)
					l.pos += len(op)
					matched = true
					break
				}
			}
			if !matched {
				return nil, fmt.Errorf("line %d:%d: unexpected character %q", lineNo, l.pos+1, c)
			}
		}
	}
	return l.toks, nil
}

func (l *lexer) emit(kind tokKind, text string, pos int) {
	l.toks = append(l.toks, token{kind: kind, text: text, pos: pos})
}

func isDigit(c byte) bool     { return '0' <= c && c <= '9' }
func isNameStart(c byte) bool { return c == '_' || c == 'x' || isAlpha(c) }
func isAlpha(c byte) bool     { return ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z') }
func isNameChar(c byte) bool  { return isAlpha(c) || isDigit(c) || c == '_' || c == '-' }

// logicalLines joins physical lines that end in a continuation token.
func logicalLines(src string) []struct {
	text string
	line int
} {
	physical := strings.Split(src, "\n")
	out := make([]struct {
		text string
		line int
	}, 0, len(physical))
	for i := 0; i < len(physical); i++ {
		text := physical[i]
		start := i + 1
		for {
			trimmed := strings.TrimRight(stripComment(text), " \t\r")
			if strings.HasSuffix(trimmed, "||") || strings.HasSuffix(trimmed, "&&") ||
				strings.HasSuffix(trimmed, ",") || strings.HasSuffix(trimmed, "->") ||
				strings.HasSuffix(trimmed, "|") {
				if i+1 < len(physical) {
					i++
					text = trimmed + " " + physical[i]
					continue
				}
			}
			break
		}
		out = append(out, struct {
			text string
			line int
		}{text, start})
	}
	return out
}

func stripComment(s string) string {
	if i := strings.IndexByte(s, '#'); i >= 0 {
		return s[:i]
	}
	return s
}
