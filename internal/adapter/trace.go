// The trace adapter: program-execution logs with explicit enter/exit lines,
// the paper's third motivating workload — pre/post-condition queries over
// call/return traces.
package adapter

import (
	"bytes"
	"io"
	"unicode/utf8"

	"repro/internal/docstream"
	"repro/internal/nestedword"
)

// traceAdapter adapts a line-oriented call/return trace read from r into
// docstream events.  Per line:
//
//	enter NAME   → a call event labeled NAME
//	exit NAME    → a return event labeled NAME
//	exit         → a return event labeled with the innermost open call
//	               ("_" when nothing is open — an unmatched return, which
//	               nested words represent fine)
//	# comment    → skipped (the '#' must be the first non-blank character)
//	anything     → one internal event per whitespace-separated token
//
// Blank lines are skipped; tokens after NAME on enter/exit lines are
// ignored (timestamps, arguments).  Labels are sanitized like every other
// adapter's.  A line of 1 MiB or more, newline excluded, is a *syntaxError.
type traceAdapter struct {
	scanner
	open    []byte // sanitized labels of the open calls, concatenated
	ends    []int  // ends[i] is where open call i's label ends in open
	lineLen int    // bytes of the current line read so far
	mode    traceMode
}

// maxTraceLine bounds a trace line, newline excluded, at the limit the
// bufio.Scanner the trace adapter used to read lines with enforced.
const maxTraceLine = 1 << 20

// traceMode is where the scanner stands in the current line.
type traceMode uint8

const (
	traceLineStart traceMode = iota // before the line's first field
	traceFields                     // the line's remaining fields are internals
	traceSkip                       // the rest of the line is ignored
)

// Reset repoints the adapter at a new trace, clearing the open-call stack
// and any sticky error while keeping every buffer (the open-call stack only
// within maxKeptDepth).
func (a *traceAdapter) Reset(r io.Reader) {
	a.reset(r)
	if cap(a.ends) > maxKeptDepth {
		a.open, a.ends = nil, nil
	}
	a.open = a.open[:0]
	a.ends = a.ends[:0]
	a.lineLen = 0
	a.mode = traceLineStart
}

// enterWord and exitWord are the trace keywords.
var (
	enterWord = []byte("enter")
	exitWord  = []byte("exit")
)

// Next returns the next event, io.EOF at the end of the trace.  A read
// error or an over-long line is sticky.
//
//nwvet:hotpath
func (a *traceAdapter) Next() (docstream.Event, error) {
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

// step consumes one field (or the rest of a line), reporting an event when
// it produced one.
//
//nwvet:hotpath
func (a *traceAdapter) step() (docstream.Event, bool, error) {
	switch a.mode {
	case traceSkip:
		a.mode = traceLineStart
		return docstream.Event{}, false, a.skipLine()
	case traceFields:
		ok, eol, err := a.field()
		if err != nil || !ok {
			a.mode = traceLineStart
			return docstream.Event{}, false, err
		}
		if eol {
			a.mode = traceLineStart
		}
		return a.emit(nestedword.Internal, a.tok), true, nil
	}
	ok, eol, err := a.field()
	if err != nil {
		return docstream.Event{}, false, err
	}
	if !ok {
		if eol {
			return docstream.Event{}, false, nil // a blank line
		}
		return docstream.Event{}, false, io.EOF
	}
	if a.tok[0] == '#' {
		if !eol {
			a.mode = traceSkip
		}
		return docstream.Event{}, false, nil
	}
	enter, exit := bytes.Equal(a.tok, enterWord), bytes.Equal(a.tok, exitWord)
	if !enter && !exit {
		if !eol {
			a.mode = traceFields
		}
		return a.emit(nestedword.Internal, a.tok), true, nil
	}
	named := false
	if !eol {
		if named, eol, err = a.field(); err != nil {
			return docstream.Event{}, false, err
		}
	}
	if !eol {
		a.mode = traceSkip
	}
	if enter {
		if !named {
			return docstream.NewEvent(nestedword.Internal, "enter", a.alpha), true, nil
		}
		a.tok = sanitize(a.tok)
		a.open = append(a.open, a.tok...)
		a.ends = append(a.ends, len(a.open))
		return a.emit(nestedword.Call, a.tok), true, nil
	}
	n := len(a.ends)
	start := 0
	if n > 1 {
		start = a.ends[n-2]
	}
	switch {
	case !named && n > 0:
		a.tok = append(a.tok[:0], a.open[start:]...)
	case !named:
		a.tok = append(a.tok[:0], '_')
	}
	if n > 0 {
		a.open = a.open[:start]
		a.ends = a.ends[:n-1]
	}
	return a.emit(nestedword.Return, a.tok), true, nil
}

// field reads the line's next whitespace-separated field into tok.  ok
// reports whether there was one; eol whether the line (or the input) ended
// right after it.  io.EOF is not an error here: it ends the last line.
//
//nwvet:hotpath
func (a *traceAdapter) field() (ok, eol bool, err error) {
	a.tok = a.tok[:0]
	for {
		c, err := a.readRune()
		if err != nil {
			if err == io.EOF {
				return len(a.tok) > 0, len(a.tok) > 0, nil
			}
			return false, false, err
		}
		if c == '\n' {
			return len(a.tok) > 0, true, nil
		}
		if isSpace(c) {
			if len(a.tok) > 0 {
				return true, false, nil
			}
			continue
		}
		// An invalid byte reads as a RuneError and is spelled as U+FFFD.
		a.tok = utf8.AppendRune(a.tok, c)
	}
}

// skipLine discards the rest of the current line.
func (a *traceAdapter) skipLine() error {
	for {
		c, err := a.readRune()
		if err == io.EOF || err == nil && c == '\n' {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// readRune reads one rune, enforcing maxTraceLine.
func (a *traceAdapter) readRune() (rune, error) {
	c, size, err := a.r.ReadRune()
	if err != nil {
		return 0, err
	}
	if c == '\n' {
		a.lineLen = 0
		return c, nil
	}
	if a.lineLen += size; a.lineLen >= maxTraceLine {
		return 0, a.syntaxError("line of 1 MiB or more")
	}
	return c, nil
}
