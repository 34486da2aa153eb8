package docstream_test

import (
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/iotest"
	"unicode/utf8"

	"repro/internal/alphabet"
	"repro/internal/docstream"
	"repro/internal/generator"
	"repro/internal/nestedword"
	"repro/internal/query"
)

const sampleDoc = `<library> <book> <title> nested words </title> <year> 2007 </year> </book> <book> <title> tree automata </title> </book> </library>`

func TestTokenizeAndParse(t *testing.T) {
	n, err := docstream.Parse(sampleDoc)
	if err != nil {
		t.Fatalf("docstream.Parse: %v", err)
	}
	if !n.IsWellMatched() {
		t.Errorf("the sample document is well formed")
	}
	if n.Depth() != 3 {
		t.Errorf("depth = %d, want 3", n.Depth())
	}
	st := docstream.Summarize(n)
	if st.Elements != 6 {
		t.Errorf("elements = %d, want 6", st.Elements)
	}
	if st.TextTokens != 5 {
		t.Errorf("text tokens = %d, want 5", st.TextTokens)
	}
	if !st.WellFormed || st.PendingOpens != 0 || st.PendingCloses != 0 {
		t.Errorf("summary flags wrong: %+v", st)
	}
	if st.Positions != n.Len() || st.Depth != 3 {
		t.Errorf("summary counts wrong: %+v", st)
	}
}

func TestTokenizeErrorsAndPending(t *testing.T) {
	if _, err := docstream.Parse("<unterminated"); err == nil {
		t.Errorf("unterminated tags should fail")
	}
	if _, err := docstream.Parse("<>"); err == nil {
		t.Errorf("empty opening tags should fail")
	}
	if _, err := docstream.Parse("</ >"); err == nil {
		t.Errorf("empty closing tags should fail")
	}
	// Documents that do not parse into a tree are still representable.
	n, err := docstream.Parse("</p> <a> text <b>")
	if err != nil {
		t.Fatalf("docstream.Parse: %v", err)
	}
	if n.IsWellMatched() {
		t.Errorf("this fragment has pending tags")
	}
	st := docstream.Summarize(n)
	if st.PendingOpens != 2 || st.PendingCloses != 1 {
		t.Errorf("pending counts wrong: %+v", st)
	}
}

func TestRenderRoundTrip(t *testing.T) {
	n, err := docstream.Parse(sampleDoc)
	if err != nil {
		t.Fatalf("docstream.Parse: %v", err)
	}
	back, err := docstream.Parse(docstream.Render(n))
	if err != nil {
		t.Fatalf("docstream.Parse(docstream.Render): %v", err)
	}
	if !n.Equal(back) {
		t.Errorf("render/parse round trip failed")
	}
}

func TestStreamingRunnerMatchesBatch(t *testing.T) {
	n, err := docstream.Parse(sampleDoc)
	if err != nil {
		t.Fatalf("docstream.Parse: %v", err)
	}
	alpha := docAlphabet(n)
	q := query.WellFormed(alpha)
	events, _ := docstream.Tokenize(sampleDoc)
	r := docstream.NewStreamingRunner(q)
	for _, e := range events {
		r.Feed(e)
	}
	if r.Accepting() != q.Accepts(n) {
		t.Errorf("streaming and batch evaluation disagree")
	}
	if r.Depth() != 0 {
		t.Errorf("all elements are closed at the end of the document")
	}
	r = docstream.NewStreamingRunner(q)
	r.Feed(docstream.Event{Kind: nestedword.Call, Label: "library"})
	if r.Depth() != 1 {
		t.Errorf("depth after one open tag should be 1")
	}
}

func TestStreamingRunnerOnRandomDocuments(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	labels := []string{"a", "b", "c"}
	for trial := 0; trial < 50; trial++ {
		doc := generator.RandomDocument(rng, 80, 6, labels)
		q := query.WellFormed(docAlphabet(doc))
		r := docstream.NewStreamingRunner(q)
		for i := 0; i < doc.Len(); i++ {
			r.Feed(docstream.Event{Kind: doc.KindAt(i), Label: doc.SymbolAt(i)})
		}
		if r.Accepting() != q.Accepts(doc) {
			t.Fatalf("streaming disagrees with batch on %v", doc)
		}
	}
}

// docAlphabet builds the alphabet of labels occurring in the document.
func docAlphabet(n *nestedword.NestedWord) *alphabet.Alphabet {
	return alphabet.New(n.Alphabet()...)
}

// TestTokenizeUnicodeWhitespace checks the rune-decoding fix: multi-byte
// whitespace such as U+00A0 (NBSP) and U+2003 (em space) must separate
// tokens instead of being misread byte by byte into spurious text tokens.
func TestTokenizeUnicodeWhitespace(t *testing.T) {
	events, err := docstream.Tokenize("<p> héllo wörld </p>")
	if err != nil {
		t.Fatalf("Tokenize: %v", err)
	}
	want := []docstream.Event{
		{Kind: nestedword.Call, Label: "p"},
		{Kind: nestedword.Internal, Label: "héllo"},
		{Kind: nestedword.Internal, Label: "wörld"},
		{Kind: nestedword.Return, Label: "p"},
	}
	if len(events) != len(want) {
		t.Fatalf("got %d events %v, want %d", len(events), events, len(want))
	}
	for i := range want {
		if events[i] != want[i] {
			t.Errorf("event %d = %+v, want %+v", i, events[i], want[i])
		}
	}
}

// TestIncrementalTokenizerMatchesTokenize streams a document rune by rune
// through the incremental tokenizer (via a one-byte-at-a-time reader) and
// checks it yields exactly what the whole-document wrapper yields.
func TestIncrementalTokenizerMatchesTokenize(t *testing.T) {
	doc := sampleDoc + " trailing text <extra> ök </extra>"
	want, err := docstream.Tokenize(doc)
	if err != nil {
		t.Fatalf("Tokenize: %v", err)
	}
	tk := docstream.NewInterningTokenizer(iotest.OneByteReader(strings.NewReader(doc)), nil)
	var got []docstream.Event
	for {
		e, err := tk.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		got = append(got, e)
	}
	if len(got) != len(want) {
		t.Fatalf("incremental yields %d events, wrapper %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d: incremental %+v, wrapper %+v", i, got[i], want[i])
		}
	}
	// The error is sticky after EOF.
	if _, err := tk.Next(); err != io.EOF {
		t.Errorf("Next after EOF = %v, want io.EOF", err)
	}
}

// TestTruncateRuneBoundary checks that error context is cut on a rune
// boundary: an unterminated tag full of multi-byte runes must produce a
// valid UTF-8 error message.
func TestTruncateRuneBoundary(t *testing.T) {
	_, err := docstream.Tokenize("<ééééééééééééééé")
	if err == nil {
		t.Fatalf("unterminated tag should fail")
	}
	if !utf8.ValidString(err.Error()) {
		t.Errorf("error message %q contains a split rune", err.Error())
	}
}

// TestRandomRenderRoundTrip is the satellite round-trip test: for random
// well-formed documents, Parse(Render(n)) reproduces n exactly.
func TestRandomRenderRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	labels := []string{"a", "b", "c", "wörd"}
	for trial := 0; trial < 200; trial++ {
		n := generator.RandomDocument(rng, 2+rng.Intn(120), 8, labels)
		back, err := docstream.Parse(docstream.Render(n))
		if err != nil {
			t.Fatalf("trial %d: Parse(Render): %v", trial, err)
		}
		if !n.Equal(back) {
			t.Fatalf("trial %d: round trip lost positions:\n  in  %v\n  out %v", trial, n, back)
		}
	}
}

// TestInterningTokenizer checks edge interning: every event of an interning
// tokenizer carries the compiled symbol ID of its label, with labels outside
// the alphabet mapped to the dedicated out-of-alphabet ID and left unspelled.
func TestInterningTokenizer(t *testing.T) {
	alpha := alphabet.New("a", "b")
	tk := docstream.NewInterningTokenizer(strings.NewReader("<a> b stray </a> x"), alpha)
	type want struct {
		kind  nestedword.Kind
		label string
		sym   int
		ooa   bool
	}
	wants := []want{
		{nestedword.Call, "a", 0, false},
		{nestedword.Internal, "b", 1, false},
		{nestedword.Internal, "", 2, true},
		{nestedword.Return, "a", 0, false},
		{nestedword.Internal, "", 2, true},
	}
	for i, w := range wants {
		e, err := tk.Next()
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if e.Sym == 0 {
			t.Fatalf("event %d (%q): not interned", i, e.Label)
		}
		if got := e.SymID(alpha); got != w.sym {
			t.Errorf("event %d (%q): SymID = %d, want %d", i, e.Label, got, w.sym)
		}
		if e.Kind != w.kind || e.Label != w.label {
			t.Errorf("event %d: kind %v, label %q; want %v, %q", i, e.Kind, e.Label, w.kind, w.label)
		}
		if got := e.OutOfAlphabet(alpha); got != w.ooa {
			t.Errorf("event %d (%q): OutOfAlphabet = %v, want %v", i, e.Label, got, w.ooa)
		}
	}
	if _, err := tk.Next(); err != io.EOF {
		t.Fatalf("expected io.EOF at the end, got %v", err)
	}
}

// TestSymIDWithoutInterning checks the uninterned (zero-value) fallback: a
// plain-constructed event resolves through the alphabet map on demand.
func TestSymIDWithoutInterning(t *testing.T) {
	alpha := alphabet.New("a", "b")
	e := docstream.Event{Kind: nestedword.Internal, Label: "b"}
	if e.Sym != 0 {
		t.Fatalf("zero-value event claims to be interned")
	}
	if got := e.SymID(alpha); got != 1 {
		t.Fatalf("SymID = %d, want 1", got)
	}
	if got := (docstream.Event{Label: "zzz"}).SymID(alpha); got != alpha.Size() {
		t.Fatalf("unknown label SymID = %d, want out-of-alphabet %d", got, alpha.Size())
	}
	interned := e.Interned(alpha)
	if interned.Sym == 0 || interned.SymID(alpha) != 1 {
		t.Fatalf("Interned did not resolve the symbol: %+v", interned)
	}
}
