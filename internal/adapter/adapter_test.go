package adapter

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/alphabet"
	"repro/internal/docstream"
	"repro/internal/nestedword"
)

// newSource is New for a format the test knows New accepts.
func newSource(format string, r io.Reader, alpha *alphabet.Alphabet) Source {
	src, err := New(format, r, alpha)
	if err != nil {
		panic(err)
	}
	return src
}

// decodeAll drains a source into its event slice, failing the test on any
// error other than the clean io.EOF.
func decodeAll(t *testing.T, src Source) []docstream.Event {
	t.Helper()
	var events []docstream.Event
	for {
		e, err := src.Next()
		if err == io.EOF {
			return events
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		events = append(events, e)
	}
}

// internedImage is the event an interning source reports where a
// nil-alphabet decode reports e: e interned against alpha, with its label
// dropped when it lies outside alpha.  With a nil alpha it is e itself.
func internedImage(e docstream.Event, alpha *alphabet.Alphabet) docstream.Event {
	if alpha == nil {
		return e
	}
	e = e.Interned(alpha)
	if e.OutOfAlphabet(alpha) {
		e.Label = ""
	}
	return e
}

// ev is the kind/label shorthand the golden tables compare against.
type ev struct {
	kind  nestedword.Kind
	label string
}

func checkEvents(t *testing.T, got []docstream.Event, want []ev) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d events, want %d\ngot: %v", len(got), len(want), got)
	}
	for i, e := range got {
		if e.Kind != want[i].kind || e.Label != want[i].label {
			t.Errorf("event %d: got %v %q, want %v %q", i, e.Kind, e.Label, want[i].kind, want[i].label)
		}
	}
}

func TestNew(t *testing.T) {
	for _, f := range append(Formats(), "") {
		if _, err := New(f, strings.NewReader(""), nil); err != nil {
			t.Errorf("New(%q): %v", f, err)
		}
	}
	if _, err := New("yaml", strings.NewReader(""), nil); err == nil {
		t.Error("New(yaml): want error")
	}
	for _, f := range append(Formats(), "") {
		if err := CheckFormat(f); err != nil {
			t.Errorf("CheckFormat(%q): %v", f, err)
		}
	}
	if err := CheckFormat("yaml"); err == nil || !strings.Contains(err.Error(), "xml, json, trace") {
		t.Errorf("CheckFormat(yaml): %v", err)
	}
}

func TestXMLGolden(t *testing.T) {
	const doc = `<?xml version="1.0"?><!-- c --><library><book id="1" lang="en">Nested &amp; Words<ns:x/></book></library>`
	got := decodeAll(t, newSource("xml", strings.NewReader(doc), nil))
	checkEvents(t, got, []ev{
		{nestedword.Call, "library"},
		{nestedword.Call, "book"},
		{nestedword.Internal, "Nested"},
		{nestedword.Internal, "&"},
		{nestedword.Internal, "Words"},
		{nestedword.Call, "x"},
		{nestedword.Return, "x"},
		{nestedword.Return, "book"},
		{nestedword.Return, "library"},
	})
}

func TestXMLError(t *testing.T) {
	a := newSource("xml", strings.NewReader("<a><b></a>"), nil)
	var err error
	for err == nil {
		_, err = a.Next()
	}
	if err == io.EOF {
		t.Fatal("mismatched tags: want a decoder error, got clean EOF")
	}
	// The error is sticky.
	if _, err2 := a.Next(); err2 != err {
		t.Fatalf("error not sticky: %v then %v", err, err2)
	}
}

func TestJSONGolden(t *testing.T) {
	const doc = `{"lib": [{"t": "nested words", "n": 2007, "ok": true, "x": null}, [1.5]]} "tail"`
	got := decodeAll(t, newSource("json", strings.NewReader(doc), nil))
	checkEvents(t, got, []ev{
		{nestedword.Call, "object"},
		{nestedword.Internal, "lib"},
		{nestedword.Call, "array"},
		{nestedword.Call, "object"},
		{nestedword.Internal, "t"},
		{nestedword.Internal, "nested_words"},
		{nestedword.Internal, "n"},
		{nestedword.Internal, "2007"},
		{nestedword.Internal, "ok"},
		{nestedword.Internal, "true"},
		{nestedword.Internal, "x"},
		{nestedword.Internal, "null"},
		{nestedword.Return, "object"},
		{nestedword.Call, "array"},
		{nestedword.Internal, "1.5"},
		{nestedword.Return, "array"},
		{nestedword.Return, "array"},
		{nestedword.Return, "object"},
		{nestedword.Internal, "tail"}, // a second top-level value
	})
}

func TestJSONError(t *testing.T) {
	a := newSource("json", strings.NewReader(`{"a": [1, }`), nil)
	var err error
	for err == nil {
		_, err = a.Next()
	}
	if err == io.EOF {
		t.Fatal("malformed JSON: want a decoder error, got clean EOF")
	}
}

func TestTraceGolden(t *testing.T) {
	const doc = "# comment\nenter main\nenter open 0x11\nread 4096\n\nexit\nexit wrong\nexit\ncheck ok\n"
	got := decodeAll(t, newSource("trace", strings.NewReader(doc), nil))
	checkEvents(t, got, []ev{
		{nestedword.Call, "main"},
		{nestedword.Call, "open"},
		{nestedword.Internal, "read"},
		{nestedword.Internal, "4096"},
		{nestedword.Return, "open"},  // bare exit: innermost open call
		{nestedword.Return, "wrong"}, // explicit label wins, still pops
		{nestedword.Return, "_"},     // nothing open: unmatched return
		{nestedword.Internal, "check"},
		{nestedword.Internal, "ok"},
	})
}

func TestSanitize(t *testing.T) {
	cases := map[string]string{
		"book":      "book",
		"":          "_",
		"a b":       "a_b",
		"a\tb\nc":   "a_b_c",
		"<a>":       "_a_",
		"/close":    "_close",
		"a/b":       "a/b",
		"π∈Σ":       "π∈Σ",
		"x<y":       "x_y",
		" leading":  "_leading",
		"trailing ": "trailing_",
	}
	cases["a\xff b\xe2\x80"] = "a\uFFFD_b\uFFFD\uFFFD" // each invalid byte, as the tokenizer reads it
	for in, want := range cases {
		if got := sanitizeString(in); got != want {
			t.Errorf("sanitizeString(%q) = %q, want %q", in, got, want)
		}
	}
}

// fixturePaths lists the committed fixtures: one file per format, named by
// extension (the go fuzz corpus under testdata/fuzz is not a fixture).
func fixturePaths(t *testing.T) []string {
	t.Helper()
	var paths []string
	for _, format := range Formats() {
		matches, err := filepath.Glob("testdata/*." + format)
		if err != nil || len(matches) == 0 {
			t.Fatalf("no .%s fixture: %v", format, err)
		}
		paths = append(paths, matches...)
	}
	return paths
}

// fixtureAlphabet is deliberately partial: it covers the structural labels
// of every fixture but none of the text tokens, so each fixture exercises
// both in-alphabet and out-of-alphabet interning.
func fixtureAlphabet() *alphabet.Alphabet {
	return alphabet.New("library", "book", "title", "author", "keywords",
		"object", "array", "main", "open", "close")
}

// TestFixturesDifferential is the adapter half of the differential contract:
// for every committed fixture, rendering the adapted stream as an XML-like
// document and re-tokenizing it through the interning tokenizer reproduces
// the interned stream exactly — kind, label, and interned symbol ID per
// event.  The rendering comes from a nil-alphabet decode, because interned
// events do not spell out-of-alphabet labels.  The tokenizer chain is the
// repo's original oracle, so agreement here extends that oracle to the real
// input formats.
func TestFixturesDifferential(t *testing.T) {
	paths := fixturePaths(t)
	alpha := fixtureAlphabet()
	for _, path := range paths {
		format := strings.TrimPrefix(filepath.Ext(path), ".")
		t.Run(filepath.Base(path), func(t *testing.T) {
			body, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			decode := func(a *alphabet.Alphabet) []docstream.Event {
				src, err := New(format, strings.NewReader(string(body)), a)
				if err != nil {
					t.Fatal(err)
				}
				return decodeAll(t, src)
			}
			plain, events := decode(nil), decode(alpha)
			if len(events) == 0 || len(plain) != len(events) {
				t.Fatalf("fixture produced %d events, %d without an alphabet", len(events), len(plain))
			}

			rendered := docstream.Render(docstream.ToNestedWord(plain))
			retok := docstream.NewInterningTokenizer(strings.NewReader(rendered), alpha)
			inAlpha, outAlpha := 0, 0
			for i, e := range events {
				if w := internedImage(plain[i], alpha); e != w {
					t.Fatalf("event %d: interned decode %+v, want %+v", i, e, w)
				}
				g, err := retok.Next()
				if err != nil {
					t.Fatalf("retokenize event %d: %v", i, err)
				}
				if g != e {
					t.Fatalf("event %d: adapter %+v, retokenized %+v", i, e, g)
				}
				if e.OutOfAlphabet(alpha) {
					outAlpha++
				} else {
					inAlpha++
				}
			}
			if _, err := retok.Next(); err != io.EOF {
				t.Fatalf("retokenized stream longer than adapter stream: %v", err)
			}
			// The partial alphabet must be exercised from both sides, or the
			// symbol-ID comparison above proves nothing about interning.
			if inAlpha == 0 || outAlpha == 0 {
				t.Fatalf("fixture not differential: %d in-alphabet, %d out-of-alphabet events", inAlpha, outAlpha)
			}
		})
	}
}

// TestUninternedDifferential runs the same round-trip with a nil alphabet:
// adapters must leave Sym zero exactly like the plain tokenizer does.
func TestUninternedDifferential(t *testing.T) {
	for _, path := range fixturePaths(t) {
		format := strings.TrimPrefix(filepath.Ext(path), ".")
		body, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		src, err := New(format, strings.NewReader(string(body)), nil)
		if err != nil {
			t.Fatal(err)
		}
		events := decodeAll(t, src)
		rendered := docstream.Render(docstream.ToNestedWord(events))
		retok, err := docstream.Tokenize(rendered)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if len(retok) != len(events) {
			t.Fatalf("%s: %d events, retokenized %d", path, len(events), len(retok))
		}
		for i := range events {
			if events[i] != retok[i] {
				t.Fatalf("%s event %d: adapter %+v, retokenized %+v", path, i, events[i], retok[i])
			}
		}
	}
}

// TestNativeFormat pins the empty format name to the render-and-retokenize
// contract of the package doc: on every fixture, the native syntax rendered
// from the format adapter's nil-alphabet decode, read back through
// New("", ...), yields exactly the format adapter's own decode of the
// fixture — uninterned with a nil alphabet, interned with one.  The
// reference is the format adapter, not the native tokenizer New("") wraps,
// so a tokenizer fault cannot hide behind itself.
func TestNativeFormat(t *testing.T) {
	alpha := fixtureAlphabet()
	for _, path := range fixturePaths(t) {
		format := strings.TrimPrefix(filepath.Ext(path), ".")
		body, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		decode := func(format, doc string, a *alphabet.Alphabet) []docstream.Event {
			src, err := New(format, strings.NewReader(doc), a)
			if err != nil {
				t.Fatal(err)
			}
			return decodeAll(t, src)
		}
		native := docstream.Render(docstream.ToNestedWord(decode(format, string(body), nil)))
		for _, a := range []*alphabet.Alphabet{nil, alpha} {
			got, want := decode("", native, a), decode(format, string(body), a)
			if len(got) != len(want) {
				t.Fatalf("%s (alphabet %v): %d native events, %d from the %s adapter", path, a, len(got), len(want), format)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s (alphabet %v) event %d: New(\"\") %+v, %s adapter %+v", path, a, i, got[i], format, want[i])
				}
			}
		}
	}
}

// TestReadErrorPassesThrough pins that a failing reader's own error — an
// *http.MaxBytesError in the server — reaches the caller unwrapped, never
// folded into a *syntaxError, whatever construct the scanner was inside.
func TestReadErrorPassesThrough(t *testing.T) {
	boom := errors.New("boom")
	prefixes := map[string][]string{
		"xml":   {"", "<a>", "<a>text", `<a x="1`, "<!-- c", "<a><![CDATA[x", "<?pi"},
		"json":  {"", "[", `{"a`, "[12", `["\u12`, "tr"},
		"trace": {"", "enter ma", "# comment", "read 1 2"},
	}
	for format, docs := range prefixes {
		for _, doc := range docs {
			src, err := New(format, io.MultiReader(strings.NewReader(doc), iotest.ErrReader(boom)), nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := drainAll(src); !errors.Is(err, boom) {
				t.Errorf("%s %q: %v, want the reader's error", format, doc, err)
			}
		}
	}
}

// TestSyntaxErrorAndReset checks the typed error and that Reset clears it:
// the same adapter then decodes the next document cleanly.
func TestSyntaxErrorAndReset(t *testing.T) {
	bad := map[string]string{"xml": "<a><b></a>", "json": `{"a": [1, }`, "trace": strings.Repeat("x", maxTraceLine)}
	good := map[string]string{"xml": "<a/>", "json": "[]", "trace": "enter a\nexit\n"}
	for _, format := range Formats() {
		src, err := New(format, strings.NewReader(bad[format]), nil)
		if err != nil {
			t.Fatal(err)
		}
		_, err = drainAll(src)
		var se *syntaxError
		if !errors.As(err, &se) || se.Format != format || se.Offset <= 0 || !strings.Contains(err.Error(), format) {
			t.Fatalf("%s: %v, want a *syntaxError naming the format and an offset", format, err)
		}
		if _, again := src.Next(); again != err {
			t.Fatalf("%s: error not sticky: %v then %v", format, err, again)
		}
		src.Reset(strings.NewReader(good[format]))
		if events, err := drainAll(src); err != nil || len(events) != 2 {
			t.Fatalf("%s after Reset: %v, %v", format, events, err)
		}
	}
}
