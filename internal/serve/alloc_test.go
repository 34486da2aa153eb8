package serve

import (
	"context"
	"io"
	"strings"
	"testing"

	"repro/internal/adapter"
	"repro/internal/alphabet"
)

// TestPoolSubmitAllocs pins the whole shard path: Submit, Wait and Release
// of a native, an XML and a JSON document, each holding labels outside the
// engine alphabet, allocate nothing once the format's first document has
// built its decoder.  The future, its completion signal and its verdicts
// are recycled; routing, the cancellation wrapper, the decoder and every
// label — out-of-alphabet ones included — allocate nothing.
func TestPoolSubmitAllocs(t *testing.T) {
	eng := testEngine(t)
	// Two shards, so documents are routed by the hash of their ID.
	p, err := NewPool(eng, WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	docs := []struct{ format, body string }{
		{"", "<a> b <zz> yyy </zz> <c> nested b </c> words </a>"},
		{"xml", `<a><b>nested words</b><zz yy="1"/><c>b 37</c></a>`},
		{"json", `{"a": ["nested", 37, false], "zz": {"b": "words"}}`},
	}
	ctx := context.Background()
	rd := strings.NewReader("")
	for _, d := range docs {
		if n := outOfAlphabetEvents(t, eng.Alphabet(), d.format, d.body); n < 3 {
			t.Fatalf("%q document has %d out-of-alphabet events; the test needs several", d.format, n)
		}
		var runErr error
		run := func() {
			rd.Reset(d.body)
			fut, err := p.Submit(ctx, "doc-17", d.format, rd)
			if err == nil {
				_, err = fut.Wait(ctx)
				fut.Release()
			}
			if err != nil {
				runErr = err
			}
		}
		run() // the format's first document builds the shard's decoder
		allocs := testing.AllocsPerRun(50, run)
		if runErr != nil {
			t.Fatalf("%q document: %v", d.format, runErr)
		}
		if allocs != 0 {
			t.Errorf("%q document: Submit+Wait+Release made %v allocs/op, want 0", d.format, allocs)
		}
	}
}

// outOfAlphabetEvents counts the events of body whose labels lie outside
// alpha.
func outOfAlphabetEvents(t *testing.T, alpha *alphabet.Alphabet, format, body string) int {
	t.Helper()
	src, err := adapter.New(format, strings.NewReader(body), nil)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		e, err := src.Next()
		if err == io.EOF {
			return n
		}
		if err != nil {
			t.Fatalf("%q document: %v", format, err)
		}
		if e.OutOfAlphabet(alpha) {
			n++
		}
	}
}
