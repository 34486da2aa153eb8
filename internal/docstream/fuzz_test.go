package docstream

import (
	"io"
	"strings"
	"testing"

	"repro/internal/alphabet"
)

// FuzzTokenizer feeds arbitrary bytes through both tokenizer flavours and
// checks the invariants the serving stack relies on: no panics, the plain
// and interning tokenizers agree event for event (the interning one adds
// Sym, which must decode to SymID of the plain label, and spells only
// in-alphabet labels: an out-of-alphabet event's Label is empty), and
// documents whose labels use the plain identifier charset survive a
// Render/Parse round trip.
func FuzzTokenizer(f *testing.F) {
	f.Add("<a> hello <b> x </b> </a>")
	f.Add("<a><a></a>")
	f.Add("</b> stray <c>")
	f.Add("   ")
	f.Add("<>< a <<b>> </>")
	f.Add("héllo <wörld> π </wörld>")
	alpha := alphabet.New("a", "b")
	f.Fuzz(func(t *testing.T, doc string) {
		if len(doc) > 1<<16 {
			doc = doc[:1<<16]
		}
		plain := NewInterningTokenizer(strings.NewReader(doc), nil)
		interning := NewInterningTokenizer(strings.NewReader(doc), alpha)
		for {
			pe, perr := plain.Next()
			ie, ierr := interning.Next()
			if (perr == nil) != (ierr == nil) {
				t.Fatalf("tokenizers diverge on errors: plain %v, interning %v", perr, ierr)
			}
			if perr != nil {
				if perr != io.EOF && ierr.Error() != perr.Error() {
					t.Fatalf("tokenizers report different errors: plain %v, interning %v", perr, ierr)
				}
				break
			}
			wantLabel := pe.Label
			if pe.OutOfAlphabet(alpha) {
				wantLabel = ""
			}
			if pe.Kind != ie.Kind || ie.Label != wantLabel {
				t.Fatalf("tokenizers diverge: plain %+v, interning %+v", pe, ie)
			}
			if pe.Sym != 0 {
				t.Fatalf("plain tokenizer interned event %+v", pe)
			}
			if got, want := ie.Sym-1, pe.SymID(alpha); got != want {
				t.Fatalf("interned Sym %d decodes to %d, SymID says %d", ie.Sym, got, want)
			}
		}

		// Round trip: a parse that succeeds with plain identifier labels must
		// render back to an equal word.
		n, err := Parse(doc)
		if err != nil {
			return
		}
		for i := 0; i < n.Len(); i++ {
			for _, r := range n.SymbolAt(i) {
				if !(r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9') {
					return
				}
			}
		}
		back, err := Parse(Render(n))
		if err != nil {
			t.Fatalf("Render produced an unparseable document: %v", err)
		}
		if !back.Equal(n) {
			t.Fatalf("Render/Parse round trip changed the word: %v vs %v", n, back)
		}
	})
}
