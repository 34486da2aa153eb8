package word

import (
	"testing"

	"repro/internal/alphabet"
)

var ab = alphabet.New("a", "b")

func TestRegexBasics(t *testing.T) {
	cases := []struct {
		name  string
		r     Regex
		yes   []string
		no    []string
		alpha *alphabet.Alphabet
	}{
		{"epsilon", Epsilon(), []string{""}, []string{"a"}, ab},
		{"symbol", Symbol("a"), []string{"a"}, []string{"", "b", "aa"}, ab},
		{"any", AnySymbol(), []string{"a", "b"}, []string{"", "ab"}, ab},
		{"concat", Concat(Symbol("a"), Symbol("b")), []string{"ab"}, []string{"a", "b", "ba", "abb"}, ab},
		{"or", Or(Symbol("a"), Symbol("b")), []string{"a", "b"}, []string{"", "ab"}, ab},
		{"star", Star(Symbol("a")), []string{"", "a", "aaaa"}, []string{"b", "ab"}, ab},
		{"plus", Plus(Symbol("a")), []string{"a", "aa"}, []string{"", "b"}, ab},
		{"optional", Optional(Symbol("a")), []string{"", "a"}, []string{"aa", "b"}, ab},
		{"literal", Literal("a", "b", "a"), []string{"aba"}, []string{"ab", "abab"}, ab},
		{"sigma-star", SigmaStar(), []string{"", "a", "bba"}, nil, ab},
		{"empty-or", Or(), nil, []string{"", "a"}, ab},
		{"empty-concat", Concat(), []string{""}, []string{"a"}, ab},
	}
	for _, c := range cases {
		nfa := CompileRegex(c.r, c.alpha)
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

func TestParseRegex(t *testing.T) {
	cases := []struct {
		expr string
		yes  []string
		no   []string
	}{
		{"ab", []string{"ab"}, []string{"a", "ba"}},
		{"a|b", []string{"a", "b"}, []string{"ab", ""}},
		{"a*b", []string{"b", "ab", "aaab"}, []string{"a", "ba"}},
		{"(ab)+", []string{"ab", "abab"}, []string{"", "aba"}},
		{"a?b", []string{"b", "ab"}, []string{"aab"}},
		{".*a", []string{"a", "ba", "aba"}, []string{"", "b"}},
		{"~", []string{""}, []string{"a"}},
		{"", []string{""}, []string{"a"}},
	}
	for _, c := range cases {
		r, err := ParseRegex(c.expr)
		if err != nil {
			t.Fatalf("ParseRegex(%q): %v", c.expr, err)
		}
		d := CompileRegexDFA(r, ab)
		for _, in := range c.yes {
			if !d.Accepts(w(in)) {
				t.Errorf("%q should accept %q", c.expr, in)
			}
		}
		for _, in := range c.no {
			if d.Accepts(w(in)) {
				t.Errorf("%q should reject %q", c.expr, in)
			}
		}
	}
}

func TestParseRegexErrors(t *testing.T) {
	for _, bad := range []string{"(", ")", "a)", "(a", "*", "|a)", "a(b"} {
		if _, err := ParseRegex(bad); err == nil {
			t.Errorf("ParseRegex(%q) should fail", bad)
		} else if err.Error() == "" {
			t.Errorf("error message should not be empty")
		}
	}
}

func TestMustParseRegexPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("MustParseRegex should panic on invalid input")
		}
	}()
	MustParseRegex("(")
}

func TestRegexEquivalences(t *testing.T) {
	// A few classical identities checked as DFA equivalence.
	cases := []struct {
		name string
		lhs  Regex
		rhs  Regex
	}{
		{"star-idempotent", Star(Star(Symbol("a"))), Star(Symbol("a"))},
		{"plus-def", Plus(Symbol("a")), Concat(Symbol("a"), Star(Symbol("a")))},
		{"union-commutes", Or(Symbol("a"), Symbol("b")), Or(Symbol("b"), Symbol("a"))},
		{"distribute", Concat(Symbol("a"), Or(Symbol("a"), Symbol("b"))), Or(Concat(Symbol("a"), Symbol("a")), Concat(Symbol("a"), Symbol("b")))},
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
