// The DSL lexer and recursive-descent parser.  Errors carry the byte offset
// of the offending token so CLI users can find typos in long query strings.
package dsl

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// keywords are reserved words that cannot be used as labels.
var keywords = map[string]bool{
	"and": true, "or": true, "not": true, "no": true,
	"within": true, "before": true, "after": true,
	"contains": true, "well-formed": true,
}

type tokKind int

const (
	tokEOF    tokKind = iota
	tokWord           // label or keyword
	tokPath           // //a//b
	tokLParen         // (
	tokRParen         // )
	tokColon          // :
)

type token struct {
	kind tokKind
	text string
	pos  int // byte offset in the input
}

func (t token) describe() string {
	if t.kind == tokEOF {
		return "end of query"
	}
	return fmt.Sprintf("%q", t.text)
}

// lex splits the query string into tokens.  '(' ')' ':' are punctuation even
// when glued to a word ("within book:" lexes as within, book, ':').
func lex(s string) []token {
	var toks []token
	i := 0
	for i < len(s) {
		r, w := utf8.DecodeRuneInString(s[i:])
		switch {
		case unicode.IsSpace(r):
			i += w
		case r == '(':
			toks = append(toks, token{tokLParen, "(", i})
			i += w
		case r == ')':
			toks = append(toks, token{tokRParen, ")", i})
			i += w
		case r == ':':
			toks = append(toks, token{tokColon, ":", i})
			i += w
		default:
			start := i
			for i < len(s) {
				r, w := utf8.DecodeRuneInString(s[i:])
				if unicode.IsSpace(r) || r == '(' || r == ')' || r == ':' {
					break
				}
				i += w
			}
			word := s[start:i]
			kind := tokWord
			if strings.HasPrefix(word, "//") {
				kind = tokPath
			}
			toks = append(toks, token{kind, word, start})
		}
	}
	toks = append(toks, token{tokEOF, "", len(s)})
	return toks
}

// parser is a cursor over the token slice.
type parser struct {
	toks []token
	i    int
}

func (p *parser) peek() token { return p.toks[p.i] }

func (p *parser) next() token {
	t := p.toks[p.i]
	if t.kind != tokEOF {
		p.i++
	}
	return t
}

func (p *parser) errf(t token, format string, args ...any) error {
	return fmt.Errorf("dsl: at offset %d: %s", t.pos, fmt.Sprintf(format, args...))
}

// label consumes one word token that is a valid label.
func (p *parser) label(what string) (string, error) {
	t := p.next()
	if t.kind != tokWord {
		return "", p.errf(t, "expected %s, got %s", what, t.describe())
	}
	if keywords[t.text] {
		return "", p.errf(t, "%q is a keyword and cannot be a label", t.text)
	}
	return t.text, nil
}

// parse parses a single DSL query.
func parse(s string) (Expr, error) {
	p := &parser{toks: lex(s)}
	e, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if t := p.peek(); t.kind != tokEOF {
		return nil, p.errf(t, "unexpected %s after complete query", t.describe())
	}
	return e, nil
}

// ParseList parses a ";"-separated list of DSL queries, skipping empty
// entries — the spelling the -dsl CLI flags accept.
func ParseList(s string) ([]Expr, error) {
	var exprs []Expr
	for _, part := range strings.Split(s, ";") {
		if strings.TrimSpace(part) == "" {
			continue
		}
		e, err := parse(part)
		if err != nil {
			return nil, fmt.Errorf("%w (in query %q)", err, strings.TrimSpace(part))
		}
		exprs = append(exprs, e)
	}
	return exprs, nil
}

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.peek().kind == tokWord && p.peek().text == "or" {
		p.next()
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = orExpr{L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.peek().kind == tokWord && p.peek().text == "and" {
		p.next()
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = andExpr{L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseUnary() (Expr, error) {
	switch t := p.peek(); {
	case t.kind == tokWord && t.text == "not":
		p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return notExpr{X: x}, nil
	case t.kind == tokLParen:
		p.next()
		e, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if c := p.next(); c.kind != tokRParen {
			return nil, p.errf(c, "expected ), got %s", c.describe())
		}
		return e, nil
	default:
		return p.parseAtom()
	}
}

func (p *parser) parseAtom() (Expr, error) {
	t := p.peek()
	switch {
	case t.kind == tokPath:
		p.next()
		return parsePath(p, t)
	case t.kind != tokWord:
		return nil, p.errf(t, "expected a query, got %s", t.describe())
	case t.text == "well-formed":
		p.next()
		return wellFormedExpr{}, nil
	case t.text == "contains":
		p.next()
		l, err := p.label("a label after contains")
		if err != nil {
			return nil, err
		}
		return containsExpr{Label: l}, nil
	case t.text == "no":
		p.next()
		return p.parseNoAfter()
	case t.text == "within":
		p.next()
		scope, err := p.label("a scope label after within")
		if err != nil {
			return nil, err
		}
		if c := p.next(); c.kind != tokColon {
			return nil, p.errf(c, "expected : after the within scope, got %s", c.describe())
		}
		return p.parsePred(scope)
	default:
		return p.parseOrder()
	}
}

func parsePath(p *parser, t token) (Expr, error) {
	var labels []string
	for _, seg := range strings.Split(strings.TrimPrefix(t.text, "//"), "//") {
		if seg == "" {
			return nil, p.errf(t, "empty path segment in %q", t.text)
		}
		if keywords[seg] {
			return nil, p.errf(t, "%q is a keyword and cannot be a path label", seg)
		}
		labels = append(labels, seg)
	}
	return pathExpr{Labels: labels}, nil
}

// parseNoAfter parses "no X after Y" with the leading "no" already consumed.
func (p *parser) parseNoAfter() (Expr, error) {
	forbidden, err := p.label("a label after no")
	if err != nil {
		return nil, err
	}
	if a := p.next(); a.kind != tokWord || a.text != "after" {
		return nil, p.errf(a, "expected after, got %s", a.describe())
	}
	trigger, err := p.label("a label after after")
	if err != nil {
		return nil, err
	}
	return noAfterExpr{Forbidden: forbidden, Trigger: trigger}, nil
}

// parseOrder parses "a before b [before c ...]" — at the top level a bare
// label must be followed by at least one before (use contains for a single
// label).
func (p *parser) parseOrder() (Expr, error) {
	first, labels, err := p.parseOrderLabels()
	if err != nil {
		return nil, err
	}
	if len(labels) < 2 {
		return nil, p.errf(p.peek(), "expected before after label %q (use \"contains %s\" for a single label)", first, first)
	}
	return orderExpr{Labels: labels}, nil
}

// parseOrderLabels parses "a [before b ...]" and returns the first label
// separately for error messages.
func (p *parser) parseOrderLabels() (string, []string, error) {
	first, err := p.label("a query keyword or a label")
	if err != nil {
		return "", nil, err
	}
	labels := []string{first}
	for p.peek().kind == tokWord && p.peek().text == "before" {
		p.next()
		l, err := p.label("a label after before")
		if err != nil {
			return "", nil, err
		}
		labels = append(labels, l)
	}
	return first, labels, nil
}

// parsePred parses the predicate of a within atom.  Unlike the top level, a
// single-label order predicate is allowed: "within book: title" means some
// book element's span contains a title position.
func (p *parser) parsePred(scope string) (Expr, error) {
	if t := p.peek(); t.kind == tokWord && t.text == "no" {
		p.next()
		na, err := p.parseNoAfter()
		if err != nil {
			return nil, err
		}
		n := na.(noAfterExpr)
		return withinExpr{Scope: scope, Forbidden: n.Forbidden, Trigger: n.Trigger}, nil
	}
	_, labels, err := p.parseOrderLabels()
	if err != nil {
		return nil, err
	}
	return withinExpr{Scope: scope, Order: labels}, nil
}
