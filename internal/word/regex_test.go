package word

import (
	"testing"

	"repro/internal/alphabet"
)

var ab = alphabet.New("a", "b")

// star is the Kleene star of r.
func star(r Regex) Regex { return starRegex{inner: r} }

func TestRegexBasics(t *testing.T) {
	cases := []struct {
		name  string
		r     Regex
		yes   []string
		no    []string
		alpha *alphabet.Alphabet
	}{
		{"symbol", Symbol("a"), []string{"a"}, []string{"", "b", "aa"}, ab},
		{"any", AnySymbol(), []string{"a", "b"}, []string{"", "ab"}, ab},
		{"concat", Concat(Symbol("a"), Symbol("b")), []string{"ab"}, []string{"a", "b", "ba", "abb"}, ab},
		{"star", star(Symbol("a")), []string{"", "a", "aaaa"}, []string{"b", "ab"}, ab},
		{"sigma-star", SigmaStar(), []string{"", "a", "bba"}, nil, ab},
		{"empty-concat", Concat(), []string{""}, []string{"a"}, ab},
	}
	for _, c := range cases {
		nfa := compileRegex(c.r, c.alpha)
		dfa := CompileRegexDFA(c.r, c.alpha)
		for _, in := range c.yes {
			if !nfa.Accepts(w(in)) {
				t.Errorf("%s: NFA rejects %q", c.name, in)
			}
			if !dfa.Accepts(w(in)) {
				t.Errorf("%s: DFA rejects %q", c.name, in)
			}
		}
		for _, in := range c.no {
			if nfa.Accepts(w(in)) {
				t.Errorf("%s: NFA accepts %q", c.name, in)
			}
			if dfa.Accepts(w(in)) {
				t.Errorf("%s: DFA accepts %q", c.name, in)
			}
		}
	}
}

func TestLinearOrderQuery(t *testing.T) {
	// Σ* a Σ* b Σ* a Σ*: patterns a, b, a appear in that order.
	r := LinearOrderQuery("a", "b", "a")
	d := CompileRegexDFA(r, ab)
	yes := []string{"aba", "aabbaa", "babab", "abba"}
	no := []string{"", "ab", "ba", "aab", "bba"}
	for _, in := range yes {
		if !d.Accepts(w(in)) {
			t.Errorf("linear-order query should accept %q", in)
		}
	}
	for _, in := range no {
		if d.Accepts(w(in)) {
			t.Errorf("linear-order query should reject %q", in)
		}
	}
}

func TestLinearOrderQueryLinearSize(t *testing.T) {
	// The paper's introduction: the query Σ*p1Σ*...pnΣ* compiles into a
	// deterministic word automaton of linear size (n+1 live states, +1 dead
	// at most).
	for n := 1; n <= 8; n++ {
		patterns := make([]string, n)
		for i := range patterns {
			patterns[i] = "a"
		}
		size := CompileRegexDFA(LinearOrderQuery(patterns...), ab).NumStates()
		if size > n+2 {
			t.Errorf("n=%d: minimal DFA size %d exceeds linear bound %d", n, size, n+2)
		}
	}
}

func TestRegexEquivalences(t *testing.T) {
	// A few classical identities checked as DFA equivalence.
	cases := []struct {
		name string
		lhs  Regex
		rhs  Regex
	}{
		{"star-idempotent", star(star(Symbol("a"))), star(Symbol("a"))},
		{"star-unrolls", Concat(Symbol("a"), star(Symbol("a"))), Concat(star(Symbol("a")), Symbol("a"))},
		{"concat-associates", Concat(Concat(Symbol("a"), Symbol("b")), Symbol("a")), Concat(Symbol("a"), Concat(Symbol("b"), Symbol("a")))},
		{"sigma-star-absorbs", Concat(SigmaStar(), SigmaStar()), SigmaStar()},
	}
	for _, c := range cases {
		l := CompileRegexDFA(c.lhs, ab)
		r := CompileRegexDFA(c.rhs, ab)
		if !Equivalent(l, r) {
			t.Errorf("%s: expected equivalent languages", c.name)
		}
	}
}

// BenchmarkCompileRegexDFA times the minimal DFA of the query library's
// linear-order regular expression over sixteen labels: the Thompson NFA,
// its subset construction and minimization.
func BenchmarkCompileRegexDFA(b *testing.B) {
	alpha := alphabet.New("a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l", "m", "n", "o", "p")
	r := LinearOrderQuery("a", "b", "c")
	for b.Loop() {
		CompileRegexDFA(r, alpha)
	}
}
