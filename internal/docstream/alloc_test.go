package docstream

import (
	"io"
	"strings"
	"testing"

	"repro/internal/alphabet"
)

// TestTokenizerRetokenizeZeroAlloc pins the claim the //nwvet:hotpath
// annotation on the tokenizer loop makes: an interning tokenizer
// retokenizes document after document — Reset plus a full drain — without
// allocating, because tokens are spelled into the reused scratch buffer,
// interned via alphabet.IndexBytes, and labelled with the alphabet's
// canonical strings, or reported by the out-of-alphabet symbol ID alone
// (the multi-byte labels outside the alphabet below would otherwise each
// cost a string).
func TestTokenizerRetokenizeZeroAlloc(t *testing.T) {
	alpha := alphabet.New("a", "b", "c")
	doc := strings.Repeat("<a> b <c> b bb </c> <b></b> c <dd> zzz </dd> </a> ", 16)
	rd := strings.NewReader(doc)
	tk := NewInterningTokenizer(rd, alpha)

	var tokErr error
	run := func() {
		rd.Reset(doc)
		tk.Reset(rd)
		for {
			_, err := tk.Next()
			if err == io.EOF {
				return
			}
			if err != nil {
				tokErr = err
				return
			}
		}
	}
	run() // grow the scratch buffer
	if tokErr != nil {
		t.Fatal(tokErr)
	}
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Errorf("Tokenizer.Reset+retokenize: %v allocs/op, want 0", allocs)
	}
	if tokErr != nil {
		t.Fatal(tokErr)
	}
}
