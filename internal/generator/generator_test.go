package generator

import (
	"io"
	"math/rand"
	"testing"

	"repro/internal/docstream"
	"repro/internal/nestedword"
	"repro/internal/nwa"
	"repro/internal/word"
)

func TestRandomGenerators(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	labels := []string{"a", "b"}
	nw := RandomNestedWord(rng, 20, labels)
	if nw.Len() != 20 {
		t.Errorf("RandomNestedWord length = %d, want 20", nw.Len())
	}
	doc := RandomDocument(rng, 60, 5, labels)
	if !doc.IsWellMatched() {
		t.Errorf("RandomDocument must be well matched")
	}
	if doc.Depth() > 5 {
		t.Errorf("RandomDocument depth %d exceeds the bound 5", doc.Depth())
	}
	tr := RandomTree(rng, 15, labels)
	if tr.Size() < 1 {
		t.Errorf("RandomTree must be non-empty")
	}
}

func TestTheorem3Family(t *testing.T) {
	for s := 1; s <= 5; s++ {
		a := Theorem3NWA(s)
		// Every member is accepted.
		for mask := 0; mask < 1<<s; mask++ {
			if !a.Accepts(theorem3Member(s, mask)) {
				t.Fatalf("s=%d: member %d rejected", s, mask)
			}
		}
		// Paths of the wrong length are rejected.
		if a.Accepts(theorem3Member(s+1, 0)) || a.Accepts(theorem3Member(s-1, 0)) {
			t.Errorf("s=%d: wrong-length paths accepted", s)
		}
		// Non-path tree words are rejected.
		if a.Accepts(nestedword.MustParse("<a <a a> <a a> a>")) {
			t.Errorf("s=%d: non-path word accepted", s)
		}
		// Mismatched call/return labels are rejected.
		if a.Accepts(nestedword.MustParse("<a <b a> b>")) {
			t.Errorf("s=%d: mismatched path accepted", s)
		}
	}
}

func TestTheorem3TaggedNFA(t *testing.T) {
	s := 4
	nfa := Theorem3TaggedNFA(s)
	a := Theorem3NWA(s)
	rng := rand.New(rand.NewSource(3))
	// The NFA over tagged words agrees with the NWA on members and random
	// words.
	for mask := 0; mask < 1<<s; mask++ {
		member := theorem3Member(s, mask)
		if !nfa.Accepts(nwa.TaggedWord(member)) {
			t.Fatalf("member %d rejected by the tagged NFA", mask)
		}
	}
	for i := 0; i < 100; i++ {
		n := RandomNestedWord(rng, 2*s, []string{"a", "b"})
		if nfa.Accepts(nwa.TaggedWord(n)) != a.Accepts(n) {
			t.Fatalf("tagged NFA and NWA disagree on %v", n)
		}
	}
	// The minimal DFA is exponential (Theorem 3): at least 2^s states.
	if size := nfa.MinimalDFASize(); size < 1<<s {
		t.Errorf("minimal DFA has %d states, expected at least %d", size, 1<<s)
	}
}

func TestTheorem5Family(t *testing.T) {
	s := 3
	dfa := Theorem5FlatDFA(s)
	flat := nwa.FlatFromDFA(dfa, AB)
	// Members and non-members according to the predicate.
	for m := 0; m <= 2*s; m++ {
		for mask := 0; mask < 1<<s; mask++ {
			w := theorem5Word(m, Theorem5BlockWord(s, mask))
			want := theorem5Predicate(s, w)
			forced := (m % s) // block index forced to ⟨a⟩, 0-based: (m mod s)+1 → bit m%s
			if (mask&(1<<forced) == 0) != want {
				t.Fatalf("predicate inconsistent with the family definition at m=%d mask=%d", m, mask)
			}
			if got := flat.Accepts(w); got != want {
				t.Fatalf("flat automaton wrong at m=%d mask=%d: got %v want %v", m, mask, got, want)
			}
		}
	}
	// Junk is rejected.
	for _, junk := range []string{"", "<a a>", "<a <b b> a>", "a b", "<a <b b> <a <a a> a> a> a>"} {
		if flat.Accepts(nestedword.MustParse(junk)) {
			t.Errorf("junk word %q accepted", junk)
		}
	}
	// The upper bound: O(s²) states.
	if dfa.NumStates() > 3*s*s+4*s+10 {
		t.Errorf("flat DFA has %d states, larger than the O(s²) bound", dfa.NumStates())
	}
}

func TestTheorem5Signatures(t *testing.T) {
	// The 2^s block words have pairwise distinct membership signatures under
	// the s distinguishing contexts — the measured form of the 2^s lower
	// bound for bottom-up automata.
	s := 4
	dfa := Theorem5FlatDFA(s)
	flat := nwa.FlatFromDFA(dfa, AB)
	seen := map[string]bool{}
	for mask := 0; mask < 1<<s; mask++ {
		blocks := Theorem5BlockWord(s, mask)
		sig := make([]byte, s)
		for i := 1; i <= s; i++ {
			if flat.Accepts(Theorem5Context(i, blocks)) {
				sig[i-1] = '1'
			} else {
				sig[i-1] = '0'
			}
		}
		if seen[string(sig)] {
			t.Fatalf("duplicate signature %s", sig)
		}
		seen[string(sig)] = true
	}
	if len(seen) != 1<<s {
		t.Errorf("expected %d distinct signatures, got %d", 1<<s, len(seen))
	}
}

func TestTheorem8Family(t *testing.T) {
	for s := 0; s <= 3; s++ {
		a := Theorem8NWA(s)
		dfa := word.CompileRegexDFA(Theorem8Regex(s), AB)
		rng := rand.New(rand.NewSource(int64(s) + 7))
		// Agreement with the word-language definition on random path words.
		for i := 0; i < 300; i++ {
			l := rng.Intn(3*s + 6)
			w := make([]string, l)
			for j := range w {
				w[j] = []string{"a", "b"}[rng.Intn(2)]
			}
			if got, want := a.Accepts(nestedword.Path(w...)), dfa.Accepts(w); got != want {
				t.Fatalf("s=%d: NWA and word DFA disagree on %v: got %v want %v", s, w, got, want)
			}
		}
		// Non-path words are rejected.
		if a.Accepts(nestedword.MustParse("<a <a a> <a a> a>")) {
			t.Errorf("s=%d: non-path word accepted", s)
		}
		if a.Accepts(nestedword.MustParse("<a <b a> b>")) {
			t.Errorf("s=%d: mismatched path accepted", s)
		}
	}
}

func TestLinearOrderDocumentAndFigure2(t *testing.T) {
	n := 4
	seen := map[string]bool{}
	for mask := 0; mask < 1<<n; mask++ {
		doc := LinearOrderDocument(n, mask)
		if !doc.IsWellMatched() {
			t.Fatalf("documents must be well matched")
		}
		seen[doc.String()] = true
	}
	if len(seen) != 1<<n {
		t.Errorf("expected %d distinct documents", 1<<n)
	}
	if LinearOrderAlphabet(n).Size() != n+2 {
		t.Errorf("alphabet size = %d, want %d", LinearOrderAlphabet(n).Size(), n+2)
	}
	f2 := Figure2Tree(3)
	if f2.Size() != 2*3+(1<<3)-1 {
		t.Errorf("Figure2Tree(3) size = %d, want %d", f2.Size(), 2*3+(1<<3)-1)
	}
	if f2.CountLabel("a") != 6 || f2.CountLabel("b") != 7 {
		t.Errorf("Figure2Tree(3) label counts wrong: %d a's, %d b's", f2.CountLabel("a"), f2.CountLabel("b"))
	}
}

// TestDocumentStream checks the streaming generator: deterministic per seed,
// well-matched with matching labels, depth-bounded, and at least the
// requested number of events.
func TestDocumentStream(t *testing.T) {
	const size, maxDepth = 5000, 8
	collect := func() []docstream.Event {
		src := NewDocumentStream(77, size, maxDepth, []string{"a", "b"})
		var out []docstream.Event
		for {
			e, err := src.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, e)
		}
		if src.emitted != len(out) {
			t.Fatalf("emitted = %d, want %d", src.emitted, len(out))
		}
		return out
	}
	first, second := collect(), collect()
	if len(first) < size {
		t.Fatalf("stream yielded %d events, want ≥ %d", len(first), size)
	}
	if len(first) != len(second) {
		t.Fatalf("same seed yielded %d then %d events", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("same seed diverged at event %d", i)
		}
	}
	depth, maxSeen := 0, 0
	var stack []string
	for i, e := range first {
		switch e.Kind {
		case nestedword.Call:
			stack = append(stack, e.Label)
			depth++
			if depth > maxSeen {
				maxSeen = depth
			}
		case nestedword.Return:
			if len(stack) == 0 {
				t.Fatalf("event %d: unmatched return", i)
			}
			if top := stack[len(stack)-1]; top != e.Label {
				t.Fatalf("event %d: closing %q while %q is open", i, e.Label, top)
			}
			stack = stack[:len(stack)-1]
			depth--
		}
	}
	if len(stack) != 0 {
		t.Fatalf("%d elements left open at the end of the stream", len(stack))
	}
	if maxSeen > maxDepth {
		t.Fatalf("depth reached %d, bound is %d", maxSeen, maxDepth)
	}
}
