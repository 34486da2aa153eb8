// Package adapter turns real-world hierarchical inputs — XML documents,
// JSON values, program call/return traces — into the docstream.Event stream
// the rest of the system already speaks.  This is the paper's founding
// observation made operational: the SAX view of an XML document, the
// open/close structure of JSON objects and arrays, and the enter/exit
// structure of an execution trace are all the *same thing*, a nested word,
// so one query stack serves all three once each input is adapted to the
// common event stream.
//
// Each adapter is a hand-written byte scanner over one reusable
// bufio.Reader.  Labels are spelled into a reused scratch buffer, sanitized
// into the tokenizer's token syntax in place, and interned through
// docstream.InternBytes — the mapping the native tokenizer uses — so
// out-of-alphabet labels get the identical dedicated symbol ID no matter
// which source produced them, and no label costs an allocation: an
// in-alphabet label reuses the alphabet's canonical string, and an
// out-of-alphabet one is reported by its symbol ID alone, with an empty
// Label.  Decoded with a nil alphabet instead, every label is spelled, and
// rendering that stream as an XML-like document and re-tokenizing it
// against an alphabet reproduces the alphabet's interning decode event for
// event.  That round trip, plus a differential against encoding/xml and
// encoding/json (kept in this package's tests as oracles), is the contract
// the tests pin.
package adapter

import (
	"bufio"
	"fmt"
	"io"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/alphabet"
	"repro/internal/docstream"
	"repro/internal/nestedword"
)

// Source is the event-stream interface every adapter implements: one event
// per call, io.EOF at the clean end of the input, any other error sticky.
// Its Next is structurally engine.EventSource, so adapters plug into
// engine.Run-style consumers without this package importing the engine;
// Reset repoints the adapter at the next input while keeping its buffers,
// the way docstream.Tokenizer.Reset does, so a long-lived consumer decodes
// document after document without allocating decoder state.
type Source interface {
	Next() (docstream.Event, error)
	Reset(r io.Reader)
}

// Formats lists the adapter format names New accepts besides the native
// empty name, in display order.
func Formats() []string { return []string{"xml", "json", "trace"} }

// CheckFormat reports whether New accepts format, with New's error when it
// does not.  Callers that build the decoder later (serve.Pool builds one
// per shard) use it to reject an unknown format up front.
func CheckFormat(format string) error {
	switch format {
	case "", "xml", "json", "trace":
		return nil
	}
	return fmt.Errorf("adapter: unknown format %q (want one of %s)", format, strings.Join(Formats(), ", "))
}

// New returns the decoder for the named format reading from r, interning
// labels against alpha (pass nil for uninterned events).  The names are the
// ones the CLI -format flags and the HTTP ?format= parameter accept; the
// empty name is the native XML-like token syntax, decoded by the docstream
// tokenizer itself.
func New(format string, r io.Reader, alpha *alphabet.Alphabet) (Source, error) {
	base := scanner{format: format, alpha: alpha}
	var a Source
	switch format {
	case "":
		return docstream.NewInterningTokenizer(r, alpha), nil
	case "xml":
		a = &xmlAdapter{scanner: base}
	case "json":
		a = &jsonAdapter{scanner: base}
	case "trace":
		a = &traceAdapter{scanner: base}
	default:
		return nil, CheckFormat(format)
	}
	a.Reset(r)
	return a, nil
}

// syntaxError reports malformed input: the format, the input byte offset at
// which the scanner gave up, and what it found there.  Read errors from the
// underlying reader (an *http.MaxBytesError, say) are returned as they are,
// never folded into a syntaxError.
type syntaxError struct {
	Format string // "xml", "json" or "trace"
	Offset int64  // input bytes consumed when the error was found
	Msg    string
}

// Error formats the error with its format and offset.
func (e *syntaxError) Error() string {
	return fmt.Sprintf("adapter: %s syntax error at byte %d: %s", e.Format, e.Offset, e.Msg)
}

// sanitize maps a valid UTF-8 label into the tokenizer's token syntax,
// rewriting it in place: every whitespace rune (the tokenizer's token
// separator) and every '<' or '>' (its tag delimiters) becomes '_', a
// leading '/' (which would turn a rendered opening tag into a closing one)
// becomes '_', and the empty label becomes "_".  Labels already in token
// syntax come back unchanged.  The result never outgrows the input except
// for the empty label's "_".
func sanitize(label []byte) []byte {
	if len(label) == 0 {
		return append(label, '_')
	}
	w := 0
	for r := 0; r < len(label); {
		c := label[r]
		if c < utf8.RuneSelf {
			if c == '<' || c == '>' || asciiSpace[c] {
				c = '_'
			}
			label[w] = c
			w++
			r++
			continue
		}
		rn, size := utf8.DecodeRune(label[r:])
		if unicode.IsSpace(rn) {
			label[w] = '_'
			w++
		} else {
			w += copy(label[w:], label[r:r+size])
		}
		r += size
	}
	label = label[:w]
	if label[0] == '/' {
		label[0] = '_'
	}
	return label
}

// asciiSpace marks the ASCII bytes unicode.IsSpace accepts.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// isSpace is unicode.IsSpace with the ASCII answer from a table.
func isSpace(c rune) bool {
	if c < utf8.RuneSelf {
		return asciiSpace[c]
	}
	return unicode.IsSpace(c)
}

// countingReader counts the bytes handed to the buffered reader, so the
// scanners can report input offsets without counting per byte.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// scanner is the state every adapter shares: one reusable buffered reader,
// the scratch buffer the current label is spelled into, the interning
// alphabet, and the sticky error.
type scanner struct {
	format string
	in     countingReader
	r      *bufio.Reader
	tok    []byte
	alpha  *alphabet.Alphabet
	err    error
}

// maxKeptDepth bounds the open-element entries an adapter keeps across
// Reset.  A deeper document grows the adapter's element stack as far as it
// must, but Reset then drops the stack instead of pinning it for the
// adapter's life: a serve.Pool shard keeps one adapter per format, and one
// deep document must not hold its memory while the shard serves shallow
// ones after it.
const maxKeptDepth = 1 << 16

// reset points the scanner at r, keeping its buffers.
func (s *scanner) reset(r io.Reader) {
	s.in = countingReader{r: r}
	if s.r == nil {
		s.r = new(bufio.Reader)
	}
	s.r.Reset(&s.in)
	s.tok = s.tok[:0]
	s.err = nil
}

// emit sanitizes the label spelled in label (a view of scratch memory) in
// place and interns it: zero allocations unless the adapter is uninterned.
func (s *scanner) emit(kind nestedword.Kind, label []byte) docstream.Event {
	return docstream.InternBytes(kind, sanitize(label), s.alpha)
}

// syntaxError builds the scanner's *syntaxError at the current offset.
func (s *scanner) syntaxError(msg string) error {
	return &syntaxError{Format: s.format, Offset: s.in.n - int64(s.r.Buffered()), Msg: msg}
}

// eofError turns the io.EOF of a construct cut short into a syntaxError and
// passes any other read error through unchanged.
func (s *scanner) eofError(err error, msg string) error {
	if err == io.EOF {
		return s.syntaxError(msg)
	}
	return err
}
