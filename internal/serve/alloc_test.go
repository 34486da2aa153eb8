package serve

import (
	"context"
	"io"
	"strings"
	"testing"

	"repro/internal/adapter"
	"repro/internal/alphabet"
)

// allocsPerDocument is the shard path's documented allowance for one
// document past its format's first: the Future and its channel, made by
// Submit, and the engine Result and its verdict slice, made by the
// session.  Routing, the cancellation wrapper, the decoder and every label
// — out-of-alphabet ones included — allocate nothing.
const allocsPerDocument = 4

// TestPoolSubmitAllocs pins the whole shard path: Submit plus Wait of a
// native, an XML and a JSON document, each holding labels outside the
// engine alphabet, costs exactly allocsPerDocument allocations.
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
		if allocs != allocsPerDocument {
			t.Errorf("%q document: Submit+Wait made %v allocs/op, want %d (Future, its channel, engine Result, verdict slice)",
				d.format, allocs, allocsPerDocument)
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
