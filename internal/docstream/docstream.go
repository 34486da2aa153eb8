// Package docstream connects documents to nested words the way the paper's
// introduction motivates: the SAX representation of an XML document already
// carries open-tag / close-tag / text events, so it can be interpreted as a
// nested word without any preprocessing, and nested word automata can then
// query it in a single left-to-right pass whose memory is bounded by the
// document depth.
package docstream

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/alphabet"
	"repro/internal/nestedword"
	"repro/internal/nwa"
)

// Event is a single SAX-style event: an element opening, an element closing,
// or a text token.  It corresponds to one position of the nested word.
//
// Sym optionally carries the label already interned against a query
// alphabet, so that N fanned-out compiled queries pay one symbol lookup per
// event in total — at the edge, in the tokenizer — instead of one per event
// per query.  The encoding leaves the zero value meaningful: Sym == 0 means
// "not interned" (the state of every event built without an alphabet), and
// otherwise Sym-1 is the compiled symbol ID — the alphabet index for known
// labels, or the dedicated out-of-alphabet ID alphabet.Size() for labels the
// queries have never heard of (see the query package).  Use SymID and
// Interned rather than decoding Sym by hand, and never mix events interned
// against different alphabets in one stream: a consumer trusts Sym relative
// to its own alphabet (compiled symbol IDs are only meaningful there).
//
// Label spells the event's label, with one exception: an event an interning
// source (NewEvent, InternBytes, the interning tokenizer, the adapters)
// reports outside its alphabet carries the out-of-alphabet Sym only and an
// empty Label.  Every automaton reads such a position as the one dead
// out-of-alphabet column, so its spelling is never needed to run queries.
// A caller that wants the spelling decodes with a nil alphabet and interns
// each event with Interned, which keeps the label.
type Event struct {
	Kind  nestedword.Kind
	Label string
	Sym   int
}

// SymID returns the 0-based compiled symbol ID of the event against alpha:
// the alphabet index when the label is known, alpha.Size() — the dedicated
// out-of-alphabet ID — when it is not.  Events already interned (Sym != 0)
// answer without touching the alphabet.
func (e Event) SymID(alpha *alphabet.Alphabet) int {
	if e.Sym != 0 {
		return e.Sym - 1
	}
	if i, ok := alpha.Index(e.Label); ok {
		return i
	}
	return alpha.Size()
}

// Interned returns a copy of the event with Sym resolved against alpha.
func (e Event) Interned(alpha *alphabet.Alphabet) Event {
	e.Sym = e.SymID(alpha) + 1
	return e
}

// OutOfAlphabet reports whether the event's label lies outside alpha.
func (e Event) OutOfAlphabet(alpha *alphabet.Alphabet) bool {
	return e.SymID(alpha) == alpha.Size()
}

// NewEvent builds an event for a label, interned against alpha when one is
// given: an in-alphabet label gets its alphabet index and the alphabet's
// canonical spelling, anything else the dedicated out-of-alphabet ID
// alpha.Size() and an empty Label (see Event).  With a nil alpha the event
// is uninterned (Sym stays 0) and spells its label.  This is THE
// out-of-alphabet mapping — the tokenizer and every adapter route through
// here (or InternBytes), so a label the queries have never heard of gets the
// same compiled symbol ID no matter which event source produced it.
func NewEvent(kind nestedword.Kind, label string, alpha *alphabet.Alphabet) Event {
	if alpha != nil {
		if i, ok := alpha.Index(label); ok {
			return Event{Kind: kind, Label: alpha.Symbol(i), Sym: i + 1}
		}
		return Event{Kind: kind, Sym: alpha.Size() + 1}
	}
	return Event{Kind: kind, Label: label}
}

// InternBytes is NewEvent for a label spelled in a reusable byte buffer.  It
// looks the name up allocation-free (alphabet.IndexBytes): an in-alphabet
// label reuses the alphabet's canonical string and an out-of-alphabet one
// is reported by its symbol ID alone, so with a non-nil alpha a caller that
// recycles its scratch buffer pays zero allocations per event.  Only an
// uninterned label (nil alpha) materializes a fresh string.
func InternBytes(kind nestedword.Kind, name []byte, alpha *alphabet.Alphabet) Event {
	if alpha != nil {
		if i, ok := alpha.IndexBytes(name); ok {
			return Event{Kind: kind, Label: alpha.Symbol(i), Sym: i + 1}
		}
		return Event{Kind: kind, Sym: alpha.Size() + 1}
	}
	return Event{Kind: kind, Label: string(name)}
}

// Tokenizer reads the lightweight XML-like syntax incrementally from an
// io.Reader and emits one Event at a time: "<name>" opens an element,
// "</name>" closes one, and any other whitespace-separated token is text.
// Attributes, comments, and character escaping are intentionally out of scope
// — the point is the event stream, not XML conformance.
//
// The tokenizer never buffers more than one token, so a document of any
// length streams through it in constant memory; combined with a streaming
// runner or the engine package this realizes the paper's single-pass,
// depth-bounded evaluation claim end to end.  An interning tokenizer goes
// further: tokens are spelled into a reused scratch buffer and looked up
// allocation-free (alphabet.IndexBytes), and in-alphabet labels reuse the
// alphabet's canonical strings, and labels outside the alphabet are reported
// by the out-of-alphabet symbol ID alone, so retokenizing any document costs
// zero allocations per token after the first document (the claim pinned by
// the hotpath-alloc analyzer and the AllocsPerRun regression tests).
type Tokenizer struct {
	r     *bufio.Reader
	tok   []byte // scratch for the token currently being read, reused across tokens
	err   error  // sticky error (io.EOF after the last token)
	alpha *alphabet.Alphabet
}

// NewInterningTokenizer returns a tokenizer reading from r that resolves
// every event's label against alpha at tokenize time, setting Event.Sym to
// the compiled symbol ID (labels outside alpha get the dedicated
// out-of-alphabet ID and an empty Label).  This pushes symbol interning to
// the edge of the pipeline: downstream compiled runners index their
// transition tables directly and never look a string up again.  With a nil
// alpha the events are not interned (Event.Sym stays 0).
func NewInterningTokenizer(r io.Reader, alpha *alphabet.Alphabet) *Tokenizer {
	return &Tokenizer{r: bufio.NewReader(r), alpha: alpha}
}

// Reset repoints the tokenizer at a new input, clearing any sticky error
// while keeping its buffered-reader allocation and alphabet binding.  A
// long-lived consumer serving one document after another — a serve.Pool
// shard worker holds exactly one interning tokenizer — tokenizes every
// document allocation-free after the first.
func (t *Tokenizer) Reset(r io.Reader) {
	if t.r == nil {
		t.r = bufio.NewReader(r)
	} else {
		t.r.Reset(r)
	}
	t.err = nil
	t.tok = t.tok[:0]
}

// Next returns the next event.  At the end of the input it returns io.EOF;
// any other error is a syntax or read error.  After a non-nil error every
// subsequent call returns the same error.
//
//nwvet:hotpath
func (t *Tokenizer) Next() (Event, error) {
	if t.err != nil {
		return Event{}, t.err
	}
	e, err := t.next()
	if err != nil {
		t.err = err
		return Event{}, err
	}
	return e, nil
}

// emit builds the event for a token spelled in name (a view into the scratch
// buffer) via the shared InternBytes mapping, so tokenizer and adapter
// streams agree symbol-for-symbol on out-of-alphabet labels.
func (t *Tokenizer) emit(kind nestedword.Kind, name []byte) Event {
	return InternBytes(kind, name, t.alpha)
}

//nwvet:hotpath
func (t *Tokenizer) next() (Event, error) {
	// Skip inter-token whitespace, decoding full runes so multi-byte
	// whitespace such as U+00A0 is recognized instead of being misread
	// byte by byte.
	var c rune
	for {
		var err error
		c, _, err = t.r.ReadRune()
		if err != nil {
			return Event{}, err // io.EOF here is the clean end of the stream
		}
		if !unicode.IsSpace(c) {
			break
		}
	}
	if c == '<' {
		return t.readTag()
	}
	// Text token: runs until whitespace, '<', or the end of the input.
	t.tok = utf8.AppendRune(t.tok[:0], c)
	for {
		c, _, err := t.r.ReadRune()
		if err == io.EOF {
			break
		}
		if err != nil {
			return Event{}, err
		}
		if c == '<' {
			if err := t.r.UnreadRune(); err != nil {
				return Event{}, err
			}
			break
		}
		if unicode.IsSpace(c) {
			break
		}
		t.tok = utf8.AppendRune(t.tok, c)
	}
	return t.emit(nestedword.Internal, t.tok), nil
}

// readTag consumes a tag whose '<' has already been read.
func (t *Tokenizer) readTag() (Event, error) {
	t.tok = t.tok[:0]
	for {
		c, _, err := t.r.ReadRune()
		if err == io.EOF {
			return Event{}, fmt.Errorf("docstream: unterminated tag in %q", truncate("<"+string(t.tok)))
		}
		if err != nil {
			return Event{}, err
		}
		if c == '>' {
			break
		}
		t.tok = utf8.AppendRune(t.tok, c)
	}
	tag := t.tok
	if len(tag) > 0 && tag[0] == '/' {
		name := bytes.TrimSpace(tag[1:])
		if len(name) == 0 {
			return Event{}, fmt.Errorf("docstream: empty closing tag")
		}
		return t.emit(nestedword.Return, name), nil
	}
	name := bytes.TrimSpace(tag)
	if len(name) == 0 {
		return Event{}, fmt.Errorf("docstream: empty opening tag")
	}
	return t.emit(nestedword.Call, name), nil
}

// Tokenize parses a whole document into its event slice.  It is a thin
// wrapper over the incremental Tokenizer for callers that already hold the
// document in memory.
//
//nwvet:oracle TestTokenizeAndParse, TestNativeFormat and TestDrain hold the streaming decoders to it
func Tokenize(doc string) ([]Event, error) {
	tk := NewInterningTokenizer(strings.NewReader(doc), nil)
	var events []Event
	for {
		e, err := tk.Next()
		if err == io.EOF {
			return events, nil
		}
		if err != nil {
			return nil, err
		}
		events = append(events, e)
	}
}

// truncate shortens error context to at most 20 bytes without splitting a
// UTF-8 rune.
func truncate(s string) string {
	const max = 20
	if len(s) <= max {
		return s
	}
	cut := max
	for cut > 0 && !utf8.RuneStart(s[cut]) {
		cut--
	}
	return s[:cut] + "..."
}

// ToNestedWord converts an event stream to the nested word it denotes.
// Mismatched or missing tags simply become pending calls and returns — one
// of the paper's arguments for nested words over trees is precisely that
// documents that do not parse into a tree can still be represented and
// processed.
func ToNestedWord(events []Event) *nestedword.NestedWord {
	ps := make([]nestedword.Position, len(events))
	for i, e := range events {
		ps[i] = nestedword.Position{Symbol: e.Label, Kind: e.Kind}
	}
	return nestedword.New(ps...)
}

// Parse tokenizes a document and returns its nested word.
func Parse(doc string) (*nestedword.NestedWord, error) {
	events, err := Tokenize(doc)
	if err != nil {
		return nil, err
	}
	return ToNestedWord(events), nil
}

// Render writes a nested word back in the XML-like syntax accepted by
// Tokenize (calls become opening tags, returns closing tags, internals
// text).
func Render(n *nestedword.NestedWord) string {
	var b strings.Builder
	for i := 0; i < n.Len(); i++ {
		if i > 0 {
			b.WriteByte(' ')
		}
		switch n.KindAt(i) {
		case nestedword.Call:
			b.WriteString("<" + n.SymbolAt(i) + ">")
		case nestedword.Return:
			b.WriteString("</" + n.SymbolAt(i) + ">")
		default:
			b.WriteString(n.SymbolAt(i))
		}
	}
	return b.String()
}

// Stats summarizes a document stream.
type Stats struct {
	Positions      int
	Elements       int
	TextTokens     int
	Depth          int
	WellFormed     bool
	PendingOpens   int
	PendingCloses  int
	DistinctLabels int
}

// Summarize computes document statistics in a single pass.
func Summarize(n *nestedword.NestedWord) Stats {
	calls, internals, _ := n.Counts()
	st := Stats{
		Positions:      n.Len(),
		Elements:       calls,
		TextTokens:     internals,
		Depth:          n.Depth(),
		WellFormed:     n.IsWellMatched(),
		PendingOpens:   len(n.PendingCalls()),
		PendingCloses:  len(n.PendingReturns()),
		DistinctLabels: len(n.Alphabet()),
	}
	return st
}

// StreamingRunner evaluates a deterministic NWA over an event stream one
// event at a time.  Its memory is the automaton state plus one hierarchical
// state per currently open element, i.e. proportional to the document depth
// — the streaming bound highlighted in Section 3.2.
type StreamingRunner struct {
	automaton *nwa.DNWA
	state     int
	stack     []int
}

// NewStreamingRunner creates a runner positioned at the start of a document.
func NewStreamingRunner(a *nwa.DNWA) *StreamingRunner {
	return &StreamingRunner{automaton: a, state: a.Start()}
}

// Feed consumes one event.
func (r *StreamingRunner) Feed(e Event) {
	switch e.Kind {
	case nestedword.Internal:
		r.state = r.automaton.StepInternal(r.state, e.Label)
	case nestedword.Call:
		lin, hier := r.automaton.StepCall(r.state, e.Label)
		r.stack = append(r.stack, hier)
		r.state = lin
	case nestedword.Return:
		hier := r.automaton.Start()
		if len(r.stack) > 0 {
			hier = r.stack[len(r.stack)-1]
			r.stack = r.stack[:len(r.stack)-1]
		}
		r.state = r.automaton.StepReturn(r.state, hier, e.Label)
	}
}

// Accepting reports whether the automaton accepts the stream consumed so
// far (viewed as a complete nested word).
func (r *StreamingRunner) Accepting() bool { return r.automaton.IsAccepting(r.state) }

// Depth returns the number of currently open elements.
func (r *StreamingRunner) Depth() int { return len(r.stack) }
