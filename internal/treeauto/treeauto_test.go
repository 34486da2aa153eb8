package treeauto

import (
	"math/rand"
	"testing"

	"repro/internal/alphabet"
	"repro/internal/nestedword"
	"repro/internal/tree"
	"repro/internal/word"
)

var ab = alphabet.New("a", "b")

// evenAStepwise builds a stepwise automaton over {a,b} accepting trees with
// an even number of a-labelled nodes.  States 0 = even, 1 = odd.
func evenAStepwise() *Stepwise {
	b := NewStepwiseBuilder(ab, 2)
	b.Init("a", 1).Init("b", 0)
	// Folding a child adds its parity to the parent's parity.
	b.Step(0, 0, 0).Step(0, 1, 1).Step(1, 0, 1).Step(1, 1, 0)
	b.Accept(0)
	return b.Build()
}

func evenAPredicate(t *tree.Tree) bool { return t.CountLabel("a")%2 == 0 }

// randomTree builds a random non-empty tree over {a,b}.
func randomTree(rng *rand.Rand, maxDepth, maxBranch int) *tree.Tree {
	label := []string{"a", "b"}[rng.Intn(2)]
	if maxDepth <= 1 || rng.Intn(3) == 0 {
		return tree.Leaf(label)
	}
	n := rng.Intn(maxBranch + 1)
	children := make([]*tree.Tree, 0, n)
	for i := 0; i < n; i++ {
		children = append(children, randomTree(rng, maxDepth-1, maxBranch))
	}
	return tree.New(label, children...)
}

func TestStepwiseEvenA(t *testing.T) {
	s := evenAStepwise()
	cases := []struct {
		term string
		want bool
	}{
		{"b", true},
		{"a", false},
		{"a(a)", true},
		{"a(b,a(a))", false},
		{"b(a,a)", true},
		{"b(b(b))", true},
	}
	for _, c := range cases {
		tr, err := tree.ParseTerm(c.term)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.Accepts(tr); got != c.want {
			t.Errorf("Accepts(%s) = %v, want %v", c.term, got, c.want)
		}
	}
	if _, ok := s.eval(nil); ok {
		t.Errorf("Eval of the empty tree should report ok=false")
	}
	if s.Accepts(tree.Leaf("z")) {
		t.Errorf("labels outside the alphabet should be rejected")
	}
}

func TestStepwiseAgainstPredicateRandom(t *testing.T) {
	s := evenAStepwise()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 300; i++ {
		tr := randomTree(rng, 4, 3)
		if got, want := s.Accepts(tr), evenAPredicate(tr); got != want {
			t.Fatalf("Accepts(%v) = %v, want %v", tr, got, want)
		}
	}
}

func TestStepwiseToBottomUpNWALemma1(t *testing.T) {
	s := evenAStepwise()
	a := s.ToBottomUpNWA()
	if !a.IsBottomUp() {
		t.Fatalf("Lemma 1 embedding must be bottom-up")
	}
	if !a.IsWeak() {
		t.Fatalf("Lemma 1 embedding must be weak")
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 300; i++ {
		tr := randomTree(rng, 4, 3)
		nw := tree.ToNestedWord(tr)
		if got, want := a.Accepts(nw), s.Accepts(tr); got != want {
			t.Fatalf("NWA and stepwise automaton disagree on %v: %v vs %v", tr, got, want)
		}
	}
}

func TestStepwiseToBottomUpNWARejectsNonTreeStructure(t *testing.T) {
	a := evenAStepwise().ToBottomUpNWA()
	// Plain internals are not tree words; the embedded automaton has no
	// internal transitions and must reject them.
	if a.Accepts(nestedword.MustParse("a b")) {
		t.Errorf("the embedding should reject words with internal positions")
	}
}

func TestPathSizesLemma3(t *testing.T) {
	// L = Σ^2 a: the minimal DFA is small, the reverse language a Σ^2 also;
	// the point here is only that the Lemma 3 helpers agree with the word
	// package's minimization.
	dfa := word.CompileRegexDFA(word.Concat(word.AnySymbol(), word.AnySymbol(), word.Symbol("a")), ab)
	if got, want := MinimalTopDownPathStates(dfa), dfa.Minimize().NumStates(); got != want {
		t.Errorf("MinimalTopDownPathStates = %d, want %d", got, want)
	}
	if got, want := MinimalBottomUpPathStates(dfa), dfa.Reverse().Minimize().NumStates(); got != want {
		t.Errorf("MinimalBottomUpPathStates = %d, want %d", got, want)
	}
	// "n-th symbol from the end is a" has a small reverse DFA but an
	// exponential forward DFA; the two measures must reflect that asymmetry.
	nthFromEnd := word.Concat(word.SigmaStar(), word.Symbol("a"), word.AnySymbol(), word.AnySymbol(), word.AnySymbol())
	d := word.CompileRegexDFA(nthFromEnd, ab)
	if MinimalTopDownPathStates(d) <= MinimalBottomUpPathStates(d) {
		t.Errorf("expected the top-down (forward DFA) size %d to exceed the bottom-up (reverse DFA) size %d",
			MinimalTopDownPathStates(d), MinimalBottomUpPathStates(d))
	}
}

func TestTopDownPathJNWA(t *testing.T) {
	// L = words over {a,b} ending in a.
	dfa := word.CompileRegexDFA(word.Concat(word.SigmaStar(), word.Symbol("a")), ab)
	j := TopDownPathJNWA(dfa, ab)
	if !j.IsTopDown() {
		t.Fatalf("the path automaton must be top-down (all states hierarchical)")
	}
	if !j.IsDeterministic() {
		t.Fatalf("the path automaton must be deterministic")
	}
	cases := []struct {
		word []string
		want bool
	}{
		{[]string{"a"}, true},
		{[]string{"b"}, false},
		{[]string{"a", "b", "a"}, true},
		{[]string{"a", "b"}, false},
		{[]string{"b", "b", "b", "a"}, true},
	}
	for _, c := range cases {
		n := nestedword.Path(c.word...)
		if got := j.Accepts(n); got != c.want {
			t.Errorf("Accepts(path(%v)) = %v, want %v", c.word, got, c.want)
		}
	}
	// Tree words that are not paths must be rejected.
	for _, s := range []string{"<a <a a> <a a> a>", "<a b a>", "<a a> <a a>", "<a <b a> b>"} {
		if j.Accepts(nestedword.MustParse(s)) {
			t.Errorf("non-path tree word %q must be rejected", s)
		}
	}
	// The empty path corresponds to the empty word: accepted iff ε ∈ L.
	if j.Accepts(nestedword.Empty()) {
		t.Errorf("ε ∉ L, so the empty nested word must be rejected")
	}
}
