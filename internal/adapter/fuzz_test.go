package adapter

import (
	"io"
	"strings"
	"testing"

	"repro/internal/alphabet"
	"repro/internal/docstream"
	"repro/internal/nestedword"
)

// fuzzEventCap bounds the drained stream so a pathological input (for
// example megabytes of one-character tokens) cannot stall a fuzz exec.
const fuzzEventCap = 1 << 14

// drain pulls at most fuzzEventCap events and reports whether the stream
// ended in a clean io.EOF within the cap.
func drain(src Source) ([]docstream.Event, bool) {
	var events []docstream.Event
	for len(events) < fuzzEventCap {
		e, err := src.Next()
		if err == io.EOF {
			return events, true
		}
		if err != nil {
			return events, false
		}
		events = append(events, e)
	}
	return events, false
}

// checkStream is the shared fuzz property, run on the stream open decodes
// from one input: every label of the nil-alphabet decode is in token syntax
// (so the stream renders and re-tokenizes losslessly), the decode interned
// against alpha is that stream's interned image event for event, and the
// rendered stream re-tokenized against alpha reproduces the interned decode.
// balanced asserts returns never outnumber calls (both decoders enforce
// closer matching); closed additionally asserts a clean EOF closes every
// call — true only for XML, since json.Decoder's Token reports io.EOF even
// inside an open container (a pending call, which nested words represent
// fine), and traces allow anything.
func checkStream(t *testing.T, alpha *alphabet.Alphabet, open func(*alphabet.Alphabet) Source, balanced, closed bool) {
	t.Helper()
	events, clean := drain(open(nil))
	interned, internedClean := drain(open(alpha))
	if clean != internedClean || len(events) != len(interned) {
		t.Fatalf("interning changed the decode: %d events (clean %v), interned %d (clean %v)",
			len(events), clean, len(interned), internedClean)
	}
	depth := 0
	for i, e := range events {
		if s := sanitizeString(e.Label); s != e.Label {
			t.Fatalf("event %d: label %q not in token syntax (sanitize → %q)", i, e.Label, s)
		}
		if w := internedImage(e, alpha); interned[i] != w {
			t.Fatalf("event %d: interned decode %+v, want %+v", i, interned[i], w)
		}
		switch e.Kind {
		case nestedword.Call:
			depth++
		case nestedword.Return:
			depth--
			if balanced && depth < 0 {
				t.Fatalf("event %d: unmatched return in a decoder-enforced format", i)
			}
		}
	}
	if clean && closed && depth != 0 {
		t.Fatalf("clean EOF with %d unclosed calls", depth)
	}
	if !clean {
		return
	}
	rendered := docstream.Render(docstream.ToNestedWord(events))
	retok := docstream.NewInterningTokenizer(strings.NewReader(rendered), alpha)
	for i := range interned {
		g, err := retok.Next()
		if err != nil {
			t.Fatalf("re-tokenize event %d: %v", i, err)
		}
		if interned[i] != g {
			t.Fatalf("round trip event %d: %+v vs %+v", i, interned[i], g)
		}
	}
	if _, err := retok.Next(); err != io.EOF {
		t.Fatalf("re-tokenized stream too long: %v", err)
	}
}

// fuzzAlpha exercises the interned path on a partial alphabet; the adapters
// must never panic regardless of what the decoders hand them.
var fuzzAlpha = alphabet.New("object", "array", "a", "b")

func FuzzXMLAdapter(f *testing.F) {
	f.Add(`<a x="1">text <b/></a>`)
	f.Add(`<?xml version="1.0"?><a>&amp;</a>`)
	f.Add(`<a><b></a>`)
	f.Add(`plain text, no elements`)
	f.Fuzz(func(t *testing.T, doc string) {
		if len(doc) > 1<<12 {
			return
		}
		checkStream(t, fuzzAlpha, func(a *alphabet.Alphabet) Source {
			return newSource("xml", strings.NewReader(doc), a)
		}, true, true)
	})
}

func FuzzJSONAdapter(f *testing.F) {
	f.Add(`{"a": [1, true, null, "x"]}`)
	f.Add(`[[[]]] "two" 3`)
	f.Add(`{"a": }`)
	f.Add(`12e999`)
	f.Fuzz(func(t *testing.T, doc string) {
		if len(doc) > 1<<12 {
			return
		}
		checkStream(t, fuzzAlpha, func(a *alphabet.Alphabet) Source {
			return newSource("json", strings.NewReader(doc), a)
		}, true, false)
	})
}

func FuzzTraceAdapter(f *testing.F) {
	f.Add("enter main\nexit\n")
	f.Add("exit\nexit close\n# c\nread 1 2 3\n")
	f.Fuzz(func(t *testing.T, doc string) {
		if len(doc) > 1<<12 {
			return
		}
		// Traces represent unmatched returns on purpose, so only the no-panic
		// and round-trip properties apply.
		checkStream(t, fuzzAlpha, func(a *alphabet.Alphabet) Source {
			return newSource("trace", strings.NewReader(doc), a)
		}, false, false)
	})
}
