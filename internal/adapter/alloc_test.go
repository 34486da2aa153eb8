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
	if format == "xml" {
		src = NewXMLOptions(nil, alpha, XMLOptions{Attributes: true})
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

// TestAdapterOutOfAlphabetAllocs pins the remaining cost: each
// out-of-alphabet label materializes exactly one string (Go interns
// one-byte strings, and JSON's true, false and null are constants, so the
// documents avoid those).
func TestAdapterOutOfAlphabetAllocs(t *testing.T) {
	docs := map[string]string{ // three labels outside allocAlpha each
		"xml":   `<library><book id="2">nested nestling pages</book></library>`,
		"json":  `{"title": "nested", "pages": [37, false, "preface"]}`,
		"trace": "enter main\nread 37\nenter close\nexit\nexit main\n",
	}
	for _, format := range Formats() {
		if allocs := decodeAllocs(t, format, docs[format], allocAlpha); allocs != 3 {
			t.Errorf("%s: %v allocs/op for 3 out-of-alphabet labels, want 3", format, allocs)
		}
	}
}
