// The XML adapter: real XML mapped onto the nested-word event stream exactly
// as the paper's introduction describes — start elements are calls, end
// elements returns, character data internal positions.
package adapter

import (
	"bytes"
	"fmt"
	"io"
	"unicode"
	"unicode/utf8"

	"repro/internal/docstream"
	"repro/internal/nestedword"
)

// xmlAdapter adapts a real XML document read from r into docstream events:
// start element → call (a self-closing <a/> is a call then a return), end
// element → return, each whitespace-separated character-data token →
// internal.  Comments, processing instructions, and directives are skipped.
// Element names use the local name (a namespace prefix is dropped); entity
// and character references are decoded before the label is sanitized.
//
// The scanner accepts exactly the documents encoding/xml's Decoder.Token
// accepts in its default strict mode — the oracle this package's tests
// hold it to: end tags must match their start tag's full name, a name may
// hold at most one colon, only the five predefined entities and numeric
// character references are known, text must be valid UTF-8 within the XML
// character range, an <?xml?> declaration may only name version 1.0 and
// UTF-8, and the input may not end inside an element.  A text token ends at
// any markup, so CDATA sections and comments split tokens.
type xmlAdapter struct {
	scanner
	state xmlState
	names []byte // raw names of the open elements, concatenated
	ends  []int  // ends[i] is where open element i's name ends in names
	// last1 and last2 are the last two runes of the current text run, for
	// the "]]>" check; an entity reference clears them.
	last1, last2 rune
}

// xmlState is where the scanner stands between two events.
type xmlState uint8

const (
	xmlContent xmlState = iota // between markup and character data
	xmlText                    // inside a run of character data
	xmlCDATA                   // inside a CDATA section
	xmlTag                     // inside a start tag, after its name
	xmlEmpty                   // after "/>": the element's return is due
)

// Reset repoints the adapter at a new document, clearing the element stack
// and any sticky error while keeping every buffer (the element stack only
// within maxKeptDepth).
func (a *xmlAdapter) Reset(r io.Reader) {
	a.reset(r)
	a.state = xmlContent
	if cap(a.ends) > maxKeptDepth {
		a.names, a.ends = nil, nil
	}
	a.names = a.names[:0]
	a.ends = a.ends[:0]
}

// Next returns the next event, io.EOF at the end of the document.  Malformed
// XML surfaces as a *syntaxError, a failing reader as its own error; like
// the tokenizer, the error is sticky.
//
//nwvet:hotpath
func (a *xmlAdapter) Next() (docstream.Event, error) {
	if a.err != nil {
		return docstream.Event{}, a.err
	}
	for {
		e, ok, err := a.step()
		if err != nil {
			a.err = err
			return docstream.Event{}, err
		}
		if ok {
			return e, nil
		}
	}
}

// step consumes one construct, reporting an event when it produced one.
//
//nwvet:hotpath
func (a *xmlAdapter) step() (docstream.Event, bool, error) {
	switch a.state {
	case xmlText, xmlCDATA:
		return a.text()
	case xmlTag:
		return a.attr()
	case xmlEmpty:
		a.state = xmlContent
		return a.popElement(), true, nil
	}
	b, err := a.r.ReadByte()
	if err != nil {
		if err == io.EOF && len(a.ends) > 0 {
			return docstream.Event{}, false, a.syntaxError("unexpected EOF")
		}
		return docstream.Event{}, false, err
	}
	if b != '<' {
		a.r.UnreadByte()
		a.state, a.last1, a.last2 = xmlText, 0, 0
		return docstream.Event{}, false, nil
	}
	if b, err = a.r.ReadByte(); err != nil {
		return docstream.Event{}, false, a.eofError(err, "unexpected EOF")
	}
	switch b {
	case '/':
		return a.endTag()
	case '?':
		return docstream.Event{}, false, a.procInst()
	case '!':
		return docstream.Event{}, false, a.bang()
	}
	a.r.UnreadByte()
	if err := a.nsName("expected element name after <"); err != nil {
		return docstream.Event{}, false, err
	}
	a.names = append(a.names, a.tok...)
	a.ends = append(a.ends, len(a.names))
	a.state = xmlTag
	return a.emit(nestedword.Call, localName(a.tok)), true, nil
}

// text scans the current character-data run or CDATA section up to its next
// whitespace-separated token, which it emits, or to its end.
//
//nwvet:hotpath
func (a *xmlAdapter) text() (docstream.Event, bool, error) {
	a.tok = a.tok[:0]
	for {
		c, size, err := a.r.ReadRune()
		if err != nil {
			if a.state == xmlCDATA || err != io.EOF {
				return docstream.Event{}, false, a.eofError(err, "unexpected EOF in CDATA section")
			}
			a.state = xmlContent
			return a.flush()
		}
		if c == '>' && a.last1 == ']' && a.last2 == ']' {
			if a.state == xmlText {
				return docstream.Event{}, false, a.syntaxError("unescaped ]]> not in CDATA section")
			}
			a.tok = a.tok[:len(a.tok)-2] // the "]]" ending the section
			a.state = xmlContent
			return a.flush()
		}
		if a.state == xmlText {
			if c == '<' {
				a.r.UnreadRune()
				a.state = xmlContent
				return a.flush()
			}
			if c == '&' {
				if c, err = a.entity(); err != nil {
					return docstream.Event{}, false, err
				}
				size, a.last1, a.last2 = 0, 0, 0
				if !xmlChar(c, size) {
					return docstream.Event{}, false, a.charError(c, size)
				}
				if isSpace(c) {
					if len(a.tok) > 0 {
						return a.emit(nestedword.Internal, a.tok), true, nil
					}
					continue
				}
				a.tok = utf8.AppendRune(a.tok, c)
				continue
			}
		}
		if !xmlChar(c, size) {
			return docstream.Event{}, false, a.charError(c, size)
		}
		a.last2, a.last1 = a.last1, c
		if isSpace(c) {
			if len(a.tok) > 0 {
				return a.emit(nestedword.Internal, a.tok), true, nil
			}
			continue
		}
		a.tok = utf8.AppendRune(a.tok, c)
	}
}

// flush emits the text token pending in tok, if any.
func (a *xmlAdapter) flush() (docstream.Event, bool, error) {
	if len(a.tok) == 0 {
		return docstream.Event{}, false, nil
	}
	return a.emit(nestedword.Internal, a.tok), true, nil
}

// attr scans the next attribute of the open start tag, or the end of the
// tag.  Attributes are parsed and validated but emit no event.
//
//nwvet:hotpath
func (a *xmlAdapter) attr() (docstream.Event, bool, error) {
	b, err := a.nextNonSpace()
	if err != nil {
		return docstream.Event{}, false, err
	}
	switch b {
	case '/':
		if b, err = a.r.ReadByte(); err != nil {
			return docstream.Event{}, false, a.eofError(err, "unexpected EOF")
		}
		if b != '>' {
			return docstream.Event{}, false, a.syntaxError("expected /> in element")
		}
		a.state = xmlEmpty
		return docstream.Event{}, false, nil
	case '>':
		a.state = xmlContent
		return docstream.Event{}, false, nil
	}
	a.r.UnreadByte()
	if err := a.nsName("expected attribute name in element"); err != nil {
		return docstream.Event{}, false, err
	}
	if b, err = a.nextNonSpace(); err != nil {
		return docstream.Event{}, false, err
	}
	if b != '=' {
		return docstream.Event{}, false, a.syntaxError("attribute name without = in element")
	}
	if b, err = a.nextNonSpace(); err != nil {
		return docstream.Event{}, false, err
	}
	if b != '"' && b != '\'' {
		return docstream.Event{}, false, a.syntaxError("unquoted or missing attribute value in element")
	}
	return docstream.Event{}, false, a.attrValue(rune(b))
}

// attrValue scans an attribute value up to its closing quote, checking
// every reference and every rune against the XML character range.  The
// value itself is dropped: attributes emit no event.
//
//nwvet:hotpath
func (a *xmlAdapter) attrValue(quote rune) error {
	for {
		c, size, err := a.r.ReadRune()
		if err != nil {
			return a.eofError(err, "unexpected EOF")
		}
		switch {
		case c == '<':
			return a.syntaxError("unescaped < inside quoted string")
		case c == quote:
			return nil
		case c == '&':
			if c, err = a.entity(); err != nil {
				return err
			}
			if !xmlChar(c, 0) {
				return a.charError(c, 0)
			}
		case !xmlChar(c, size):
			return a.charError(c, size)
		}
	}
}

// endTag scans an end tag whose "</" has been read, checks it closes the
// innermost open element, and emits the return.
//
//nwvet:hotpath
func (a *xmlAdapter) endTag() (docstream.Event, bool, error) {
	if err := a.nsName("expected element name after </"); err != nil {
		return docstream.Event{}, false, err
	}
	b, err := a.nextNonSpace()
	if err != nil {
		return docstream.Event{}, false, err
	}
	if b != '>' {
		return docstream.Event{}, false, a.tagError("invalid characters between </", " and >")
	}
	n := len(a.ends)
	if n == 0 {
		return docstream.Event{}, false, a.tagError("unexpected end element </", ">")
	}
	start := 0
	if n > 1 {
		start = a.ends[n-2]
	}
	if !bytes.Equal(a.names[start:], a.tok) {
		return docstream.Event{}, false, a.mismatchError(a.names[start:])
	}
	a.names = a.names[:start]
	a.ends = a.ends[:n-1]
	return a.emit(nestedword.Return, localName(a.tok)), true, nil
}

// popElement closes the innermost open element (a self-closing one) and
// returns its return event.
func (a *xmlAdapter) popElement() docstream.Event {
	n := len(a.ends)
	start := 0
	if n > 1 {
		start = a.ends[n-2]
	}
	a.tok = append(a.tok[:0], a.names[start:]...)
	a.names = a.names[:start]
	a.ends = a.ends[:n-1]
	return a.emit(nestedword.Return, localName(a.tok))
}

// nextNonSpace skips XML whitespace inside a tag and returns the byte after
// it; the input may not end there.
func (a *xmlAdapter) nextNonSpace() (byte, error) {
	for {
		b, err := a.r.ReadByte()
		if err != nil {
			return 0, a.eofError(err, "unexpected EOF")
		}
		if b != ' ' && b != '\r' && b != '\n' && b != '\t' {
			return b, nil
		}
	}
}

// readName reads an XML name into tok: the longest run of ASCII name bytes
// and non-ASCII bytes, which must then spell a valid name.  ok is false,
// with nothing consumed, when no name byte comes first.
func (a *xmlAdapter) readName() (ok bool, err error) {
	a.tok = a.tok[:0]
	for {
		b, err := a.r.ReadByte()
		if err != nil {
			return false, a.eofError(err, "unexpected EOF")
		}
		if b < utf8.RuneSelf && !isNameByte(b) {
			a.r.UnreadByte()
			break
		}
		a.tok = append(a.tok, b)
	}
	if len(a.tok) == 0 {
		return false, nil
	}
	if !isName(a.tok) {
		return false, a.syntaxError("invalid XML name")
	}
	return true, nil
}

// nsName reads an element or attribute name into tok, which may hold at
// most one colon; msg is the error when there is no such name.
func (a *xmlAdapter) nsName(msg string) error {
	ok, err := a.readName()
	if err != nil {
		return err
	}
	if !ok || bytes.Count(a.tok, colon) > 1 {
		return a.syntaxError(msg)
	}
	return nil
}

var colon = []byte{':'}

// localName is the local part of a raw name, split the way encoding/xml
// splits it: after its colon, unless the colon starts or ends the name.
func localName(name []byte) []byte {
	if i := bytes.IndexByte(name, ':'); i > 0 && i < len(name)-1 {
		return name[i+1:]
	}
	return name
}

// entity decodes a reference whose '&' has been read: one of the five
// predefined entities or a decimal (&#N;) or hexadecimal (&#xH;) character
// reference.  Anything else is an error, as in strict encoding/xml; a
// reference to a surrogate decodes to U+FFFD.
func (a *xmlAdapter) entity() (rune, error) {
	b, err := a.r.ReadByte()
	if err != nil {
		return 0, a.eofError(err, "unexpected EOF")
	}
	if b == '#' {
		if b, err = a.r.ReadByte(); err != nil {
			return 0, a.eofError(err, "unexpected EOF")
		}
		base := rune(10)
		if b == 'x' {
			base = 16
			if b, err = a.r.ReadByte(); err != nil {
				return 0, a.eofError(err, "unexpected EOF")
			}
		}
		var n rune
		digits := 0
		for d := digitValue(b, base); d >= 0; d = digitValue(b, base) {
			if n <= unicode.MaxRune {
				n = n*base + d
			}
			digits++
			if b, err = a.r.ReadByte(); err != nil {
				return 0, a.eofError(err, "unexpected EOF")
			}
		}
		if b != ';' || digits == 0 || n > unicode.MaxRune {
			return 0, a.syntaxError("invalid character reference")
		}
		if utf8.ValidRune(n) {
			return n, nil
		}
		return utf8.RuneError, nil
	}
	var name [4]byte
	k := 0
	for b >= utf8.RuneSelf || isNameByte(b) {
		if k < len(name) {
			name[k] = b
		}
		k++
		if b, err = a.r.ReadByte(); err != nil {
			return 0, a.eofError(err, "unexpected EOF")
		}
	}
	if b == ';' && k <= len(name) {
		switch string(name[:k]) {
		case "lt":
			return '<', nil
		case "gt":
			return '>', nil
		case "amp":
			return '&', nil
		case "apos":
			return '\'', nil
		case "quot":
			return '"', nil
		}
	}
	return 0, a.syntaxError("invalid entity reference")
}

// digitValue is b's value as a digit in base 10 or 16, or -1.
func digitValue(b byte, base rune) rune {
	switch {
	case '0' <= b && b <= '9':
		return rune(b - '0')
	case base == 16 && 'a' <= b && b <= 'f':
		return rune(b-'a') + 10
	case base == 16 && 'A' <= b && b <= 'F':
		return rune(b-'A') + 10
	}
	return -1
}

// bang skips a comment or directive, or enters a CDATA section, after "<!".
func (a *xmlAdapter) bang() error {
	b, err := a.r.ReadByte()
	if err != nil {
		return a.eofError(err, "unexpected EOF")
	}
	switch b {
	case '-':
		if b, err = a.r.ReadByte(); err != nil {
			return a.eofError(err, "unexpected EOF")
		}
		if b != '-' {
			return a.syntaxError("invalid sequence <!- not part of <!--")
		}
		var b0, b1 byte
		for {
			if b, err = a.r.ReadByte(); err != nil {
				return a.eofError(err, "unexpected EOF")
			}
			if b0 == '-' && b1 == '-' {
				if b != '>' {
					return a.syntaxError(`invalid sequence "--" not allowed in comments`)
				}
				return nil
			}
			b0, b1 = b1, b
		}
	case '[':
		for i := 0; i < len("CDATA["); i++ {
			if b, err = a.r.ReadByte(); err != nil {
				return a.eofError(err, "unexpected EOF")
			}
			if b != "CDATA["[i] {
				return a.syntaxError("invalid <![ sequence")
			}
		}
		a.state, a.last1, a.last2 = xmlCDATA, 0, 0
		return nil
	}
	return a.directive()
}

// directive skips a directive such as <!DOCTYPE ...> whose first byte after
// "<!" has been read.  It ends at the first '>' outside quotes that closes
// every '<' opened inside it; nested comments are skipped whole.  The byte
// bookkeeping follows encoding/xml's exactly, first-byte quirk included.
func (a *xmlAdapter) directive() error {
	var inquote byte
	depth := 0
	for {
		b, err := a.r.ReadByte()
		if err != nil {
			return a.eofError(err, "unexpected EOF")
		}
		if inquote == 0 && b == '>' && depth == 0 {
			return nil
		}
	handle:
		switch {
		case b == inquote:
			inquote = 0
		case inquote != 0:
		case b == '\'' || b == '"':
			inquote = b
		case b == '>':
			depth--
		case b == '<':
			for i := 0; i < len("!--"); i++ {
				if b, err = a.r.ReadByte(); err != nil {
					return a.eofError(err, "unexpected EOF")
				}
				if b != "!--"[i] {
					depth++
					goto handle
				}
			}
			var b0, b1 byte
			for {
				if b, err = a.r.ReadByte(); err != nil {
					return a.eofError(err, "unexpected EOF")
				}
				if b0 == '-' && b1 == '-' && b == '>' {
					break
				}
				b0, b1 = b1, b
			}
		}
	}
}

// procInst skips a processing instruction after "<?", checking an <?xml?>
// declaration's version and encoding the way encoding/xml does when no
// CharsetReader is set.
func (a *xmlAdapter) procInst() error {
	ok, err := a.readName()
	if err != nil {
		return err
	}
	if !ok {
		return a.syntaxError("expected target name after <?")
	}
	decl := string(a.tok) == "xml"
	a.tok = a.tok[:0]
	var b0 byte
	for {
		b, err := a.r.ReadByte()
		if err != nil {
			return a.eofError(err, "unexpected EOF")
		}
		if decl {
			a.tok = append(a.tok, b)
		}
		if b0 == '?' && b == '>' {
			break
		}
		b0 = b
	}
	if !decl {
		return nil
	}
	content := a.tok[:len(a.tok)-2]
	if ver := procInstParam(content, "version="); len(ver) > 0 && string(ver) != "1.0" {
		return a.syntaxError(fmt.Sprintf("unsupported version %q; only version 1.0 is supported", ver))
	}
	if enc := procInstParam(content, "encoding="); len(enc) > 0 && !bytes.EqualFold(enc, []byte("utf-8")) {
		return a.syntaxError(fmt.Sprintf("encoding %q declared but only UTF-8 is supported", enc))
	}
	return nil
}

// procInstParam returns the quoted value of param (spelled with its '=') in
// an <?xml?> declaration's content, parsed as loosely as encoding/xml's
// procInst parses it; nil when absent.
func procInstParam(s []byte, param string) []byte {
	i := 0
	var sep byte
	for i < len(s) {
		sub := s[i:]
		k := bytes.Index(sub, []byte(param))
		if k < 0 || len(param)+k >= len(sub) {
			return nil
		}
		i += len(param) + k + 1
		if c := sub[len(param)+k]; c == '\'' || c == '"' {
			sep = c
			break
		}
	}
	if sep == 0 {
		return nil
	}
	j := bytes.IndexByte(s[i:], sep)
	if j < 0 {
		return nil
	}
	return s[i : i+j]
}

// xmlChar reports whether a rune read with the given size is valid UTF-8
// inside the XML Char production (a RuneError of size 1 is an invalid
// byte; size 0 marks a decoded reference).
func xmlChar(c rune, size int) bool {
	if c == utf8.RuneError && size == 1 {
		return false
	}
	return c == 0x09 || c == 0x0A || c == 0x0D ||
		c >= 0x20 && c <= 0xD7FF ||
		c >= 0xE000 && c <= 0xFFFD ||
		c >= 0x10000 && c <= 0x10FFFF
}

// charError reports the rune xmlChar rejected.
func (a *xmlAdapter) charError(c rune, size int) error {
	if c == utf8.RuneError && size == 1 {
		return a.syntaxError("invalid UTF-8")
	}
	return a.syntaxError(fmt.Sprintf("illegal character code %U", c))
}

// tagError reports a problem with the end tag whose name is in tok.
func (a *xmlAdapter) tagError(before, after string) error {
	return a.syntaxError(before + string(a.tok) + after)
}

// mismatchError reports an end tag (in tok) that does not close open.
func (a *xmlAdapter) mismatchError(open []byte) error {
	return a.syntaxError(fmt.Sprintf("element <%s> closed by </%s>", open, a.tok))
}

// isNameByte reports whether an ASCII byte may appear in an XML name.
func isNameByte(c byte) bool {
	return 'A' <= c && c <= 'Z' || 'a' <= c && c <= 'z' || '0' <= c && c <= '9' ||
		c == '_' || c == ':' || c == '.' || c == '-'
}

// isName reports whether s is an XML name: a NameStartChar, then NameChars,
// from the XML 1.0 character classes encoding/xml uses (nameFirst and
// nameSecond).
func isName(s []byte) bool {
	if len(s) == 0 {
		return false
	}
	c, n := utf8.DecodeRune(s)
	if c == utf8.RuneError && n == 1 || !unicode.Is(nameFirst, c) {
		return false
	}
	for n < len(s) {
		s = s[n:]
		c, n = utf8.DecodeRune(s)
		if c == utf8.RuneError && n == 1 || !unicode.Is(nameFirst, c) && !unicode.Is(nameSecond, c) {
			return false
		}
	}
	return true
}
