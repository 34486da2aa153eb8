// The JSON adapter: objects and arrays nest exactly like elements, so a
// JSON value is a nested word too — the second real workload the paper's
// model covers without modification.
package adapter

import (
	"io"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/docstream"
	"repro/internal/nestedword"
)

// jsonAdapter adapts a stream of JSON values read from r into docstream
// events: '{' / '}' become call/return events labeled "object", '[' / ']'
// call/return events labeled "array", and every key and scalar value one
// internal event carrying its (sanitized) text — numbers keep their literal
// spelling, strings are unescaped (an unpaired surrogate escape or an
// invalid UTF-8 byte becomes U+FFFD), booleans become "true"/"false", null
// becomes "null".
//
// The scanner reproduces encoding/json's Decoder.Token with UseNumber — the
// oracle this package's tests hold it to: several top-level values may
// follow one another, commas and colons must sit where Token expects them,
// and the input may end inside an open container, which then stays a
// pending call (Next reports io.EOF).
type jsonAdapter struct {
	scanner
	state jsonState
	stack []jsonState // the enclosing states of the open containers
}

// jsonState is Decoder.Token's position: what may come next.
type jsonState uint8

const (
	jsonTop         jsonState = iota // a top-level value
	jsonArrayStart                   // an array's first value or ']'
	jsonArrayValue                   // an array value after a comma
	jsonArrayComma                   // ',' or ']' after an array value
	jsonObjectStart                  // an object's first key or '}'
	jsonObjectKey                    // a key after a comma
	jsonObjectColon                  // the ':' after a key
	jsonObjectValue                  // the value after a colon
	jsonObjectComma                  // ',' or '}' after a key:value pair
)

// objectLabel and arrayLabel are the call/return labels for the two JSON
// container kinds.
const (
	objectLabel = "object"
	arrayLabel  = "array"
)

// Reset repoints the adapter at a new input, clearing the container stack
// and any sticky error while keeping every buffer (the container stack only
// within maxKeptDepth).
func (a *jsonAdapter) Reset(r io.Reader) {
	a.reset(r)
	a.state = jsonTop
	if cap(a.stack) > maxKeptDepth {
		a.stack = nil
	}
	a.stack = a.stack[:0]
}

// Next returns the next event, io.EOF at the end of the input.  Malformed
// JSON surfaces as a *syntaxError, a failing reader as its own error; the
// error is sticky.
//
//nwvet:hotpath
func (a *jsonAdapter) Next() (docstream.Event, error) {
	if a.err != nil {
		return docstream.Event{}, a.err
	}
	e, err := a.next()
	if err != nil {
		a.err = err
		return docstream.Event{}, err
	}
	return e, nil
}

// next scans up to the next token, consuming separators on the way.
//
//nwvet:hotpath
func (a *jsonAdapter) next() (docstream.Event, error) {
	for {
		c, err := a.nextNonSpace()
		if err != nil {
			return docstream.Event{}, err // io.EOF here ends the stream, open containers or not
		}
		switch c {
		case '[', '{':
			if !a.valueAllowed() {
				return docstream.Event{}, a.tokenError(c)
			}
			a.stack = append(a.stack, a.state)
			if c == '[' {
				a.state = jsonArrayStart
				return docstream.NewEvent(nestedword.Call, arrayLabel, a.alpha), nil
			}
			a.state = jsonObjectStart
			return docstream.NewEvent(nestedword.Call, objectLabel, a.alpha), nil
		case ']':
			if a.state != jsonArrayStart && a.state != jsonArrayComma {
				return docstream.Event{}, a.tokenError(c)
			}
			a.closeContainer()
			return docstream.NewEvent(nestedword.Return, arrayLabel, a.alpha), nil
		case '}':
			if a.state != jsonObjectStart && a.state != jsonObjectComma {
				return docstream.Event{}, a.tokenError(c)
			}
			a.closeContainer()
			return docstream.NewEvent(nestedword.Return, objectLabel, a.alpha), nil
		case ':':
			if a.state != jsonObjectColon {
				return docstream.Event{}, a.tokenError(c)
			}
			a.state = jsonObjectValue
			continue
		case ',':
			switch a.state {
			case jsonArrayComma:
				a.state = jsonArrayValue
				continue
			case jsonObjectComma:
				a.state = jsonObjectKey
				continue
			}
			return docstream.Event{}, a.tokenError(c)
		case '"':
			if a.state == jsonObjectStart || a.state == jsonObjectKey {
				if err := a.str(); err != nil {
					return docstream.Event{}, err
				}
				a.state = jsonObjectColon
				return a.emit(nestedword.Internal, a.tok), nil
			}
		}
		if !a.valueAllowed() {
			return docstream.Event{}, a.tokenError(c)
		}
		e, err := a.scalar(c)
		if err != nil {
			return docstream.Event{}, err
		}
		switch a.state {
		case jsonArrayStart, jsonArrayValue:
			a.state = jsonArrayComma
		case jsonObjectValue:
			a.state = jsonObjectComma
		}
		return e, nil
	}
}

// valueAllowed reports whether a value may start here.
func (a *jsonAdapter) valueAllowed() bool {
	switch a.state {
	case jsonTop, jsonArrayStart, jsonArrayValue, jsonObjectValue:
		return true
	}
	return false
}

// closeContainer pops the innermost container and moves past it as a
// completed value of its parent.
func (a *jsonAdapter) closeContainer() {
	a.state = a.stack[len(a.stack)-1]
	a.stack = a.stack[:len(a.stack)-1]
	switch a.state {
	case jsonArrayStart, jsonArrayValue:
		a.state = jsonArrayComma
	case jsonObjectValue:
		a.state = jsonObjectComma
	}
}

// nextNonSpace skips JSON whitespace and returns the byte after it.
func (a *jsonAdapter) nextNonSpace() (byte, error) {
	for {
		c, err := a.r.ReadByte()
		if err != nil {
			return 0, err
		}
		if c != ' ' && c != '\t' && c != '\r' && c != '\n' {
			return c, nil
		}
	}
}

// scalar scans the string, number or literal whose first byte c has been
// read and returns its event.
//
//nwvet:hotpath
func (a *jsonAdapter) scalar(c byte) (docstream.Event, error) {
	switch {
	case c == '"':
		if err := a.str(); err != nil {
			return docstream.Event{}, err
		}
	case c == '-' || '0' <= c && c <= '9':
		if err := a.number(c); err != nil {
			return docstream.Event{}, err
		}
	case c == 't':
		return a.literal("true")
	case c == 'f':
		return a.literal("false")
	case c == 'n':
		return a.literal("null")
	default:
		return docstream.Event{}, a.byteError(c, " looking for beginning of value")
	}
	return a.emit(nestedword.Internal, a.tok), nil
}

// literal checks the rest of true, false or null and returns its event.
func (a *jsonAdapter) literal(word string) (docstream.Event, error) {
	for i := 1; i < len(word); i++ {
		c, err := a.r.ReadByte()
		if err != nil {
			return docstream.Event{}, a.eofError(err, "unexpected end of JSON input")
		}
		if c != word[i] {
			return docstream.Event{}, a.byteError(c, " in literal "+word+" (expecting "+quoteChar(word[i])+")")
		}
	}
	return docstream.NewEvent(nestedword.Internal, word, a.alpha), nil
}

// Number-literal positions, after encoding/json's scanner states.
const (
	numNeg   = iota // after '-'
	numZero         // after a leading '0' (complete)
	numInt          // in the integer digits (complete)
	numDot          // after '.'
	numFrac         // in the fraction digits (complete)
	numE            // after 'e' or 'E'
	numESign        // after the exponent's sign
	numExp          // in the exponent digits (complete)
)

// number spells the number literal starting with c into tok.  The literal
// ends at the first byte that cannot continue it, which is left unread.
//
//nwvet:hotpath
func (a *jsonAdapter) number(c byte) error {
	a.tok = append(a.tok[:0], c)
	state := numInt
	switch c {
	case '-':
		state = numNeg
	case '0':
		state = numZero
	}
	for {
		c, err := a.r.ReadByte()
		complete := state == numZero || state == numInt || state == numFrac || state == numExp
		if err != nil {
			if err == io.EOF && complete {
				return nil
			}
			return a.eofError(err, "unexpected end of JSON input")
		}
		next := -1
		digit := '0' <= c && c <= '9'
		switch state {
		case numNeg:
			if c == '0' {
				next = numZero
			} else if digit {
				next = numInt
			}
		case numZero, numInt:
			if digit && state == numInt {
				next = numInt
			} else if c == '.' {
				next = numDot
			} else if c == 'e' || c == 'E' {
				next = numE
			}
		case numDot, numFrac:
			if digit {
				next = numFrac
			} else if state == numFrac && (c == 'e' || c == 'E') {
				next = numE
			}
		case numE, numESign, numExp:
			if digit {
				next = numExp
			} else if state == numE && (c == '+' || c == '-') {
				next = numESign
			}
		}
		if next < 0 {
			if complete {
				a.r.UnreadByte()
				return nil
			}
			return a.byteError(c, " in numeric literal")
		}
		a.tok = append(a.tok, c)
		state = next
	}
}

// str unescapes a string literal whose opening quote has been read into
// tok, coercing it to valid UTF-8 the way encoding/json does.
//
//nwvet:hotpath
func (a *jsonAdapter) str() error {
	a.tok = a.tok[:0]
	for {
		c, _, err := a.r.ReadRune()
		if err != nil {
			return a.eofError(err, "unexpected end of JSON input")
		}
		switch {
		case c == '"':
			return nil
		case c == '\\':
			if err := a.escape(); err != nil {
				return err
			}
		case c < 0x20:
			return a.byteError(byte(c), " in string literal")
		default:
			// An invalid byte reads as a RuneError and is written as U+FFFD.
			a.tok = utf8.AppendRune(a.tok, c)
		}
	}
}

// escape decodes the escape sequence after a backslash onto tok.  A
// surrogate escape pairs with an immediately following \uXXXX low
// surrogate; unpaired, it decodes to U+FFFD and the next escape is left
// for the following step.
func (a *jsonAdapter) escape() error {
	c, err := a.r.ReadByte()
	if err != nil {
		return a.eofError(err, "unexpected end of JSON input")
	}
	switch c {
	case '"', '\\', '/':
	case 'b':
		c = '\b'
	case 'f':
		c = '\f'
	case 'n':
		c = '\n'
	case 'r':
		c = '\r'
	case 't':
		c = '\t'
	case 'u':
		r, err := a.hex4()
		if err != nil {
			return err
		}
		if utf16.IsSurrogate(r) {
			pair := unicode.ReplacementChar
			if p, _ := a.r.Peek(6); len(p) == 6 && p[0] == '\\' && p[1] == 'u' {
				if r1 := hexRune(p[2:]); r1 >= 0 {
					pair = utf16.DecodeRune(r, r1)
				}
			}
			if pair != unicode.ReplacementChar {
				a.r.Discard(6)
			}
			r = pair
		}
		a.tok = utf8.AppendRune(a.tok, r)
		return nil
	default:
		return a.byteError(c, " in string escape code")
	}
	a.tok = append(a.tok, c)
	return nil
}

// hex4 reads the four hex digits of a \u escape.
func (a *jsonAdapter) hex4() (rune, error) {
	var r rune
	for i := 0; i < 4; i++ {
		c, err := a.r.ReadByte()
		if err != nil {
			return 0, a.eofError(err, "unexpected end of JSON input")
		}
		d := digitValue(c, 16)
		if d < 0 {
			return 0, a.byteError(c, ` in \u hexadecimal character escape`)
		}
		r = r*16 + d
	}
	return r, nil
}

// hexRune decodes four hex digits, or returns -1.
func hexRune(p []byte) rune {
	var r rune
	for _, c := range p {
		d := digitValue(c, 16)
		if d < 0 {
			return -1
		}
		r = r*16 + d
	}
	return r
}

// tokenError reports a delimiter or separator in the wrong place, in
// Decoder.Token's words.
func (a *jsonAdapter) tokenError(c byte) error {
	var context string
	switch a.state {
	case jsonTop, jsonArrayStart, jsonArrayValue, jsonObjectValue:
		context = " looking for beginning of value"
	case jsonArrayComma:
		context = " after array element"
	case jsonObjectKey:
		context = " looking for beginning of object key string"
	case jsonObjectColon:
		context = " after object key"
	case jsonObjectComma:
		context = " after object key:value pair"
	}
	return a.byteError(c, context)
}

// byteError reports an unexpected byte c, encoding/json style; context
// starts with a space unless it is empty.
func (a *jsonAdapter) byteError(c byte, context string) error {
	return a.syntaxError("invalid character " + quoteChar(c) + context)
}

// quoteChar formats c as a quoted character, as encoding/json does.
func quoteChar(c byte) string {
	switch c {
	case '\'':
		return `'\''`
	case '"':
		return `'"'`
	}
	s := strconv.Quote(string(rune(c)))
	return "'" + s[1:len(s)-1] + "'"
}
