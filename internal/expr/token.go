// Package expr implements the engine's expression language: an SQL
// WHERE-clause dialect used for trigger conditions, subscription
// predicates, rule conditions, continuous-query filters and CEP guards.
//
// Expressions are "data" in the paper's sense (§2.2.c.i.2): they are
// parsed from strings, stored in tables, analyzed into atoms for
// indexing (a standing condition made only of atoms keeps no parse
// tree), and evaluated against anything that implements Resolver.
//
// Grammar (precedence low→high):
//
//	expr    := or
//	or      := and { OR and }
//	and     := not { AND not }
//	not     := NOT not | cmp
//	cmp     := add [ (=|!=|<>|<|<=|>|>=) add
//	               | [NOT] BETWEEN add AND add
//	               | [NOT] IN '(' expr {',' expr} ')'
//	               | [NOT] LIKE add
//	               | IS [NOT] NULL ]
//	add     := mul { (+|-) mul }
//	mul     := unary { (*|/|%) unary }
//	unary   := - unary | primary
//	primary := literal | field | func '(' args ')' | '(' expr ')'
//
// Comparison follows SQL three-valued logic: comparisons against NULL
// yield NULL, AND/OR/NOT implement Kleene logic, and a predicate matches
// only when the final result is boolean true.
package expr

import (
	"fmt"
	"strings"
	"unicode"
)

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokInt
	tokFloat
	tokString
	tokOp      // = != <> < <= > >= + - * / % ( ) ,
	tokKeyword // AND OR NOT BETWEEN IN LIKE IS NULL TRUE FALSE
)

type token struct {
	kind tokenKind
	text string // operator or keyword text (keywords upper-cased)
	pos  int
}

var keywords = map[string]bool{
	"AND": true, "OR": true, "NOT": true, "BETWEEN": true, "IN": true,
	"LIKE": true, "IS": true, "NULL": true, "TRUE": true, "FALSE": true,
}

// lexer converts an input string to tokens.
type lexer struct {
	src  string
	pos  int
	toks []token
}

func lex(src string) ([]token, error) {
	l := &lexer{src: src}
	for {
		l.skipSpace()
		if l.pos >= len(l.src) {
			l.toks = append(l.toks, token{kind: tokEOF, pos: l.pos})
			return l.toks, nil
		}
		start := l.pos
		c := l.src[l.pos]
		switch {
		case isIdentStart(rune(c)):
			l.lexIdent()
		case c >= '0' && c <= '9':
			if err := l.lexNumber(); err != nil {
				return nil, err
			}
		case c == '\'':
			if err := l.lexString(); err != nil {
				return nil, err
			}
		case c == '.' && l.pos+1 < len(l.src) && l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9':
			if err := l.lexNumber(); err != nil {
				return nil, err
			}
		default:
			if err := l.lexOp(); err != nil {
				return nil, err
			}
		}
		if l.pos == start {
			return nil, fmt.Errorf("expr: lexer stuck at %d (%q)", l.pos, l.src[l.pos:])
		}
	}
}

func (l *lexer) skipSpace() {
	for l.pos < len(l.src) && unicode.IsSpace(rune(l.src[l.pos])) {
		l.pos++
	}
}

func isIdentStart(r rune) bool {
	return r == '_' || r == '$' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return r == '_' || r == '.' || unicode.IsLetter(r) || unicode.IsDigit(r)
}

func (l *lexer) lexIdent() {
	start := l.pos
	l.pos++ // consume start rune (ASCII fast path: idents are byte-oriented here)
	for l.pos < len(l.src) && isIdentPart(rune(l.src[l.pos])) {
		l.pos++
	}
	text := l.src[start:l.pos]
	upper := strings.ToUpper(text)
	if keywords[upper] {
		l.toks = append(l.toks, token{kind: tokKeyword, text: upper, pos: start})
	} else {
		l.toks = append(l.toks, token{kind: tokIdent, text: text, pos: start})
	}
}

func (l *lexer) lexNumber() error {
	start := l.pos
	seenDot, seenExp := false, false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c >= '0' && c <= '9':
			l.pos++
		case c == '.' && !seenDot && !seenExp:
			// A dot not followed by a digit terminates the number (it
			// could be a qualified name elsewhere, but numbers cannot
			// lead a qualified name, so treat as error below).
			seenDot = true
			l.pos++
		case (c == 'e' || c == 'E') && !seenExp && l.pos > start:
			seenExp = true
			l.pos++
			if l.pos < len(l.src) && (l.src[l.pos] == '+' || l.src[l.pos] == '-') {
				l.pos++
			}
		default:
			goto done
		}
	}
done:
	text := l.src[start:l.pos]
	if strings.HasSuffix(text, ".") {
		return fmt.Errorf("expr: malformed number %q at %d", text, start)
	}
	kind := tokInt
	if seenDot || seenExp {
		kind = tokFloat
	}
	l.toks = append(l.toks, token{kind: kind, text: text, pos: start})
	return nil
}

func (l *lexer) lexString() error {
	start := l.pos
	l.pos++ // opening quote
	var sb strings.Builder
	escaped := false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '\'' {
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
				sb.WriteByte('\'') // '' escape
				l.pos += 2
				escaped = true
				continue
			}
			// Unescaped, the text is part of the source: a standing
			// condition's literals cost no bytes of their own.
			text := l.src[start+1 : l.pos]
			if escaped {
				text = sb.String()
			}
			l.pos++
			l.toks = append(l.toks, token{kind: tokString, text: text, pos: start})
			return nil
		}
		sb.WriteByte(c)
		l.pos++
	}
	return fmt.Errorf("expr: unterminated string at %d", start)
}

func (l *lexer) lexOp() error {
	start := l.pos
	two := ""
	if l.pos+1 < len(l.src) {
		two = l.src[l.pos : l.pos+2]
	}
	switch two {
	case "!=", "<>", "<=", ">=":
		l.pos += 2
		text := two
		if text == "<>" {
			text = "!="
		}
		l.toks = append(l.toks, token{kind: tokOp, text: text, pos: start})
		return nil
	}
	c := l.src[l.pos]
	switch c {
	case '=', '<', '>', '+', '-', '*', '/', '%', '(', ')', ',':
		l.pos++
		l.toks = append(l.toks, token{kind: tokOp, text: l.src[start:l.pos], pos: start})
		return nil
	}
	return fmt.Errorf("expr: unexpected character %q at %d", string(c), start)
}
