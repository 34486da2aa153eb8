package adapter

import (
	"io"
	"strings"
	"testing"

	"repro/internal/alphabet"
)

// allocDocs are one document per format whose every label lies in
// allocAlpha, so decoding them interns each label to the alphabet's
// canonical string.
var (
	allocAlpha = alphabet.New("library", "book", "title", "author", "nested", "words",
		"object", "array", "main", "open", "read", "write", "1", "2007", "true", "null", "id=1")
	allocDocs = map[string]string{
		"xml": `<?xml version="1.0"?><library><!-- c --><book id="1"><title>nested words</title>` +
			`<author>&#110;ested</author><![CDATA[words]]></book><book/></library>`,
		"json":  `[{"title": "nested", "open": true, "book": [2007, null, 1]}, "words"]`,
		"trace": "enter main\n# c\nenter open 0x1\nread 1\nexit\nwrite 2007\nexit main\n",
	}
)

// decodeAllocs measures the allocations of Reset plus a full decode of doc
// on a reused adapter, after one warm-up decode has grown its buffers.
func decodeAllocs(t *testing.T, format, doc string, alpha *alphabet.Alphabet) float64 {
	t.Helper()
	src, err := New(format, nil, alpha)
	if err != nil {
		t.Fatal(err)
	}
	rd := strings.NewReader(doc)
	var decodeErr error
	run := func() {
		rd.Reset(doc)
		src.Reset(rd)
		for {
			_, err := src.Next()
			if err == io.EOF {
				return
			}
			if err != nil {
				decodeErr = err
				return
			}
		}
	}
	run()
	allocs := testing.AllocsPerRun(50, run)
	if decodeErr != nil {
		t.Fatal(decodeErr)
	}
	return allocs
}

// TestAdapterResetDecodeZeroAlloc pins the claim the //nwvet:hotpath
// annotations on the scanners make: once Reset, an adapter decodes a
// document whose labels all lie in the alphabet without allocating.
func TestAdapterResetDecodeZeroAlloc(t *testing.T) {
	for _, format := range Formats() {
		if allocs := decodeAllocs(t, format, allocDocs[format], allocAlpha); allocs != 0 {
			t.Errorf("%s: Reset+decode of an all-in-alphabet document: %v allocs/op, want 0", format, allocs)
		}
	}
}

// TestAdapterOutOfAlphabetAllocs pins that out-of-alphabet labels cost
// nothing either: an interning adapter reports them by the out-of-alphabet
// symbol ID alone, so a document with labels outside the alphabet decodes
// with 0 allocs/op too.  (Go interns one-byte strings, and JSON's true,
// false and null are constants, so the documents avoid those: a spelled
// label would show up here as one allocation.)
func TestAdapterOutOfAlphabetAllocs(t *testing.T) {
	docs := map[string]string{ // three labels outside allocAlpha each
		"xml":   `<library><book id="2">nested nestling pages</book></library>`,
		"json":  `{"title": "nested", "pages": [37, false, "preface"]}`,
		"trace": "enter main\nread 37\nenter close\nexit\nexit main\n",
	}
	for _, format := range Formats() {
		if allocs := decodeAllocs(t, format, docs[format], allocAlpha); allocs != 0 {
			t.Errorf("%s: %v allocs/op for 3 out-of-alphabet labels, want 0", format, allocs)
		}
	}
}

// TestResetBoundsKeptDepth pins the memory an adapter keeps after a deep
// document: once Reset, its element stack holds at most maxKeptDepth
// entries, and the next document decodes as on a fresh adapter.
func TestResetBoundsKeptDepth(t *testing.T) {
	const depth = 2*maxKeptDepth + 1
	deep := map[string]string{
		"xml":   strings.Repeat("<a>", depth) + strings.Repeat("</a>", depth),
		"json":  strings.Repeat("[", depth) + strings.Repeat("]", depth),
		"trace": strings.Repeat("enter a\n", depth) + strings.Repeat("exit\n", depth),
	}
	kept := func(src Source) int {
		switch a := src.(type) {
		case *xmlAdapter:
			return cap(a.ends)
		case *jsonAdapter:
			return cap(a.stack)
		case *traceAdapter:
			return cap(a.ends)
		}
		t.Fatalf("no stack accounting for %T", src)
		return 0
	}
	for _, format := range Formats() {
		src, err := New(format, strings.NewReader(deep[format]), allocAlpha)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(decodeAll(t, src)); n != 2*depth {
			t.Fatalf("%s: deep document decoded to %d events, want %d", format, n, 2*depth)
		}
		if got := kept(src); got < depth {
			t.Fatalf("%s: element stack grew to %d entries at depth %d", format, got, depth)
		}
		src.Reset(strings.NewReader(allocDocs[format]))
		if got := kept(src); got > maxKeptDepth {
			t.Errorf("%s: Reset after depth %d kept %d stack entries, bound %d", format, depth, got, maxKeptDepth)
		}
		fresh, _ := New(format, strings.NewReader(allocDocs[format]), allocAlpha)
		got, want := decodeAll(t, src), decodeAll(t, fresh)
		if len(got) != len(want) {
			t.Fatalf("%s: after the deep document %d events, a fresh adapter %d", format, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s event %d: after the deep document %+v, a fresh adapter %+v", format, i, got[i], want[i])
			}
		}
	}
}
