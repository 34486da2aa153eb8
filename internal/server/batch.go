package server

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"strconv"
	"sync"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// maxRecycled caps the capacity of a buffer kept for reuse, so one
// document near MaxBodyBytes is not kept alive by a pool afterwards.
const maxRecycled = 1 << 20

// lineBuffer is one recycled NDJSON batch line, whose decoded document a
// shard reads through rd.
type lineBuffer struct {
	b  []byte
	rd bytes.Reader
}

// lineBuffers recycles batch lines.  They have a pool of their own: a line
// array grows to the longest document its requests carried, which no
// response buffer or body reader should keep alive.
var lineBuffers = sync.Pool{New: func() any { return new(lineBuffer) }}

func getLine() *lineBuffer { return lineBuffers.Get().(*lineBuffer) }

// free returns the line to its pool.  The caller must be its only user: a
// line is freed only once no shard can still read it.
func (l *lineBuffer) free() {
	if cap(l.b) > maxRecycled {
		return
	}
	l.b = l.b[:0]
	l.rd.Reset(nil)
	lineBuffers.Put(l)
}

// request is the recycled state of one /v1/documents or /v1/batch
// request: the response line being encoded, the size-limited body a
// /v1/documents shard reads, and the buffered reader of a batch body,
// made by the first batch request that gets this state.
type request struct {
	out  []byte
	body bodyLimit
	br   *bufio.Reader
}

var requests = sync.Pool{New: func() any { return new(request) }}

func getRequest() *request { return requests.Get().(*request) }

// free returns the state to its pool, dropping its references to the
// request's body.  The caller must be its only user: no shard may still
// read the body.
func (q *request) free() {
	if cap(q.out) > maxRecycled {
		q.out = nil
	}
	q.out = q.out[:0]
	q.body = bodyLimit{}
	if q.br != nil {
		q.br.Reset(nil)
	}
	requests.Put(q)
}

// batchReadSize is the buffered reader size of a batch request body.
const batchReadSize = 16 << 10

// bodyReader returns the state's buffered reader, switched to read r.
func (q *request) bodyReader(r io.Reader) *bufio.Reader {
	if q.br == nil {
		q.br = bufio.NewReaderSize(r, batchReadSize)
	} else {
		q.br.Reset(r)
	}
	return q.br
}

// errLineTooLong ends a batch whose next line, newline included, would
// exceed MaxBodyBytes.
var errLineTooLong = errors.New("batch line exceeds the maximum body size")

// readLine appends the next line of br to dst, newline included, and
// returns it.  It returns the bytes read with a nil error when it found a
// newline, with io.EOF or the read error otherwise (an unterminated final
// line), and errLineTooLong as soon as the line would exceed limit bytes.
func readLine(br *bufio.Reader, dst []byte, limit int) ([]byte, error) {
	for {
		frag, err := br.ReadSlice('\n')
		if len(dst)+len(frag) > limit {
			return dst, errLineTooLong
		}
		dst = append(dst, frag...)
		if err != bufio.ErrBufferFull {
			return dst, err
		}
	}
}

// Batch-line field numbers, as returned by lineField.
const (
	fieldID = iota
	fieldDoc
	fieldFormat
	numFields
)

// lineFieldNames are the batch line's keys, folded the way encoding/json
// folds a struct field's name for case-insensitive matching.
var lineFieldNames = [numFields]string{"ID", "DOC", "FORMAT"}

// maxNesting is encoding/json's nesting limit: a line whose arrays and
// objects nest deeper, the line object included, is rejected.
const maxNesting = 10000

// lineDecoder decodes one batch line in place.  String values are
// unescaped over their own escaped bytes; the one case that grows — an
// invalid UTF-8 byte becomes the three-byte U+FFFD — is written to tail,
// past the line's end, instead.
type lineDecoder struct {
	b     []byte // the line
	i     int    // read offset in b
	depth int    // open objects and arrays, the line object included
	tail  []byte // grown strings, in b's spare capacity or a fresh array
}

// decodeBatchLine decodes one NDJSON batch line the way
// json.Unmarshal(line, &batchLine{}) does: the line is an object or null;
// keys match id, doc and format case-insensitively, the last duplicate
// winning; a null value leaves the field as it was; unknown keys may hold
// any value; and string escapes, unpaired surrogates and invalid UTF-8
// decode as encoding/json decodes them.  It returns the three fields as
// slices of line, or of the bytes past len(line) up to its capacity, which
// it may overwrite.
//
//nwvet:hotpath
func decodeBatchLine(line []byte) (fields [numFields][]byte, err error) {
	d := lineDecoder{b: line, tail: line[len(line):len(line)]}
	d.space()
	if bytes.HasPrefix(line[d.i:], litNull) {
		d.i += len(litNull)
		return fields, d.end()
	}
	if d.i == len(line) || line[d.i] != '{' {
		return fields, d.errorAt("batch line is not a JSON object")
	}
	more, err := d.enter('}')
	for more {
		key, err := d.key()
		if err != nil {
			return fields, err
		}
		switch f := lineField(key); {
		case f < 0:
			err = d.skip()
		case d.i < len(line) && line[d.i] == '"':
			fields[f], err = d.str()
		case bytes.HasPrefix(line[d.i:], litNull):
			d.i += len(litNull)
		default:
			err = d.errorAt("batch line field is not a string")
		}
		if err != nil {
			return fields, err
		}
		if more, err = d.next('}'); err != nil {
			return fields, err
		}
	}
	if err != nil {
		return fields, err
	}
	return fields, d.end()
}

var (
	litNull  = []byte("null")
	litTrue  = []byte("true")
	litFalse = []byte("false")
)

// lineField reports which batch-line field an object key names, or -1.
func lineField(key []byte) int {
	for f, name := range lineFieldNames {
		if foldEqual(key, name) {
			return f
		}
	}
	return -1
}

// foldEqual reports whether key, folded rune by rune as encoding/json
// folds object keys (ASCII letters to upper case, any other rune to the
// smallest rune of its case-folding orbit), equals the folded name.
func foldEqual(key []byte, name string) bool {
	k := 0
	for i := 0; i < len(key); k++ {
		if k == len(name) {
			return false
		}
		c := key[i]
		if c < utf8.RuneSelf {
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			if c != name[k] {
				return false
			}
			i++
			continue
		}
		r, n := utf8.DecodeRune(key[i:])
		if foldRune(r) != rune(name[k]) {
			return false
		}
		i += n
	}
	return k == len(name)
}

// foldRune returns the smallest rune in r's case-folding orbit.
func foldRune(r rune) rune {
	for {
		r2 := unicode.SimpleFold(r)
		if r2 <= r {
			return r2
		}
		r = r2
	}
}

// space skips JSON whitespace.
func (d *lineDecoder) space() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// expect consumes the byte c.
func (d *lineDecoder) expect(c byte) error {
	if d.i == len(d.b) || d.b[d.i] != c {
		return d.errorAt("unexpected character")
	}
	d.i++
	return nil
}

// enter consumes the opening byte of an object or array and reports
// whether a member follows, consuming closer when none does.
func (d *lineDecoder) enter(closer byte) (bool, error) {
	if d.depth++; d.depth > maxNesting {
		return false, d.errorAt("exceeded max depth")
	}
	d.i++
	d.space()
	if d.i < len(d.b) && d.b[d.i] == closer {
		d.i++
		d.depth--
		return false, nil
	}
	return true, nil
}

// key reads an object key and the colon after it.
func (d *lineDecoder) key() ([]byte, error) {
	key, err := d.str()
	if err != nil {
		return nil, err
	}
	d.space()
	if err := d.expect(':'); err != nil {
		return nil, err
	}
	d.space()
	return key, nil
}

// next consumes what follows a member: a comma, reporting that another
// member follows, or closer.
func (d *lineDecoder) next(closer byte) (bool, error) {
	d.space()
	if d.i < len(d.b) && d.b[d.i] == ',' {
		d.i++
		d.space()
		return true, nil
	}
	if err := d.expect(closer); err != nil {
		return false, err
	}
	d.depth--
	return false, nil
}

// end checks that only whitespace follows the line's value.
func (d *lineDecoder) end() error {
	d.space()
	if d.i != len(d.b) {
		return d.errorAt("invalid character after the line's value")
	}
	return nil
}

// str reads the string literal at d.i and returns its decoded value: a
// slice of the literal's own bytes when it needs no decoding, the same
// bytes unescaped in place when decoding only shrinks it, or a slice of
// tail when an invalid UTF-8 byte makes it grow.
//
//nwvet:hotpath
func (d *lineDecoder) str() ([]byte, error) {
	b := d.b
	if d.i == len(b) || b[d.i] != '"' {
		return nil, d.errorAt("expected a string")
	}
	start := d.i + 1
	escaped, invalid := false, false
	r := start
	for {
		if r == len(b) {
			d.i = r
			return nil, d.errorAt("unterminated string")
		}
		c := b[r]
		switch {
		case c == '"':
			d.i = r + 1
			src := b[start:r]
			switch {
			case invalid:
				n := len(d.tail)
				d.tail = unescape(d.tail, src)
				return d.tail[n:], nil
			case escaped:
				return unescape(src[:0], src), nil
			}
			return src, nil
		case c == '\\':
			n := escapeLen(b[r:])
			if n == 0 {
				d.i = r
				return nil, d.errorAt("invalid escape in string")
			}
			escaped = true
			r += n
		case c < ' ':
			d.i = r
			return nil, d.errorAt("control character in string")
		case c < utf8.RuneSelf:
			r++
		default:
			rr, n := utf8.DecodeRune(b[r:])
			if rr == utf8.RuneError && n == 1 {
				invalid = true
			}
			r += n
		}
	}
}

// escapeLen returns the length of the valid escape sequence that p starts
// with (p[0] is the backslash), or 0.
func escapeLen(p []byte) int {
	if len(p) < 2 {
		return 0
	}
	switch p[1] {
	case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
		return 2
	case 'u':
		if len(p) >= 6 && hex4(p[2:6]) >= 0 {
			return 6
		}
	}
	return 0
}

// hex4 decodes four hex digits, or returns -1.
func hex4(p []byte) rune {
	var r rune
	for _, c := range p {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// unescape appends the decoded form of a validated string literal's
// contents src to dst, as encoding/json decodes it: a surrogate escape
// pairs with an immediately following low-surrogate escape and otherwise
// becomes U+FFFD, as does every invalid UTF-8 byte.  dst may be src[:0]
// when src holds no invalid UTF-8: every other step writes no more bytes
// than it reads, so the writes never overtake the reads.
func unescape(dst, src []byte) []byte {
	run := 0 // start of the pending run of bytes copied unchanged
	for r := 0; r < len(src); {
		c := src[r]
		if c < utf8.RuneSelf && c != '\\' {
			r++
			continue
		}
		if c >= utf8.RuneSelf {
			rr, n := utf8.DecodeRune(src[r:])
			if rr != utf8.RuneError || n != 1 {
				r += n
				continue
			}
			dst = append(dst, src[run:r]...)
			dst = utf8.AppendRune(dst, unicode.ReplacementChar)
			r++
			run = r
			continue
		}
		dst = append(dst, src[run:r]...)
		switch e := src[r+1]; e {
		case 'u':
			rr := hex4(src[r+2 : r+6])
			r += 6
			if utf16.IsSurrogate(rr) {
				pair := unicode.ReplacementChar
				if len(src)-r >= 6 && src[r] == '\\' && src[r+1] == 'u' {
					pair = utf16.DecodeRune(rr, hex4(src[r+2:r+6]))
				}
				if pair != unicode.ReplacementChar {
					r += 6
				}
				rr = pair
			}
			dst = utf8.AppendRune(dst, rr)
		default:
			dst = append(dst, unescapeByte(e))
			r += 2
		}
		run = r
	}
	return append(dst, src[run:]...)
}

// unescapeByte maps a one-character escape to the byte it stands for.
func unescapeByte(e byte) byte {
	switch e {
	case 'b':
		return '\b'
	case 'f':
		return '\f'
	case 'n':
		return '\n'
	case 'r':
		return '\r'
	case 't':
		return '\t'
	}
	return e // '"', '\\' and '/' stand for themselves
}

// skip consumes one JSON value of any type: an unknown key's value.
func (d *lineDecoder) skip() error {
	b := d.b
	if d.i == len(b) {
		return d.errorAt("unexpected end of line")
	}
	switch c := b[d.i]; {
	case c == '"':
		_, err := d.str()
		return err
	case c == '{' || c == '[':
		return d.skipContainer(c)
	case c == 't':
		return d.literal(litTrue)
	case c == 'f':
		return d.literal(litFalse)
	case c == 'n':
		return d.literal(litNull)
	case c == '-' || ('0' <= c && c <= '9'):
		return d.number()
	}
	return d.errorAt("invalid character looking for a value")
}

// skipContainer consumes the object or array opening with open.
func (d *lineDecoder) skipContainer(open byte) error {
	closer := byte(']')
	if open == '{' {
		closer = '}'
	}
	more, err := d.enter(closer)
	for more {
		if open == '{' {
			if _, err := d.key(); err != nil {
				return err
			}
		}
		if err := d.skip(); err != nil {
			return err
		}
		if more, err = d.next(closer); err != nil {
			return err
		}
	}
	return err
}

// literal consumes the literal word.
func (d *lineDecoder) literal(word []byte) error {
	if !bytes.HasPrefix(d.b[d.i:], word) {
		return d.errorAt("invalid literal")
	}
	d.i += len(word)
	return nil
}

// number consumes a JSON number: -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?
func (d *lineDecoder) number() error {
	b := d.b
	if b[d.i] == '-' {
		d.i++
	}
	switch {
	case d.i < len(b) && b[d.i] == '0':
		d.i++
	case d.digits() == 0:
		return d.errorAt("invalid number")
	}
	if d.i < len(b) && b[d.i] == '.' {
		d.i++
		if d.digits() == 0 {
			return d.errorAt("invalid number")
		}
	}
	if d.i < len(b) && (b[d.i] == 'e' || b[d.i] == 'E') {
		d.i++
		if d.i < len(b) && (b[d.i] == '+' || b[d.i] == '-') {
			d.i++
		}
		if d.digits() == 0 {
			return d.errorAt("invalid number")
		}
	}
	return nil
}

// digits consumes a run of decimal digits and returns its length.
func (d *lineDecoder) digits() int {
	start := d.i
	for d.i < len(d.b) && '0' <= d.b[d.i] && d.b[d.i] <= '9' {
		d.i++
	}
	return d.i - start
}

// errorAt reports a malformed line at the decoder's offset.
func (d *lineDecoder) errorAt(what string) error {
	return errors.New(what + " at offset " + strconv.Itoa(d.i))
}
