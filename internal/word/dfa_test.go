package word

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/alphabet"
)

// evenAs builds a DFA over {a,b} accepting words with an even number of a's.
func evenAs() *DFA {
	alpha := alphabet.New("a", "b")
	b := NewDFABuilder(alpha, 2)
	b.SetStart(0).SetAccept(0)
	b.AddTransition(0, "a", 1).AddTransition(0, "b", 0)
	b.AddTransition(1, "a", 0).AddTransition(1, "b", 1)
	return b.Build()
}

// endsWithAB builds a DFA over {a,b} accepting words ending in "ab".
func endsWithAB() *DFA {
	alpha := alphabet.New("a", "b")
	b := NewDFABuilder(alpha, 3)
	b.SetStart(0).SetAccept(2)
	b.AddTransition(0, "a", 1).AddTransition(0, "b", 0)
	b.AddTransition(1, "a", 1).AddTransition(1, "b", 2)
	b.AddTransition(2, "a", 1).AddTransition(2, "b", 0)
	return b.Build()
}

func w(s string) []string {
	out := make([]string, 0, len(s))
	for _, r := range s {
		out = append(out, string(r))
	}
	return out
}

func TestDFAAccepts(t *testing.T) {
	d := evenAs()
	cases := map[string]bool{"": true, "a": false, "aa": true, "ab": false, "bab": false, "abab": true, "bbbb": true}
	for in, want := range cases {
		if got := d.Accepts(w(in)); got != want {
			t.Errorf("evenAs.Accepts(%q) = %v, want %v", in, got, want)
		}
	}
	if d.Accepts([]string{"z"}) {
		t.Errorf("symbols outside the alphabet must be rejected")
	}
}

func TestDFABuilderDeadState(t *testing.T) {
	alpha := alphabet.New("a", "b")
	b := NewDFABuilder(alpha, 2)
	b.SetStart(0).SetAccept(1)
	b.AddTransition(0, "a", 1)
	d := b.Build()
	// A dead state must have been added for the missing transitions.
	if d.NumStates() != 3 {
		t.Errorf("NumStates = %d, want 3 (2 + dead)", d.NumStates())
	}
	if !d.Accepts(w("a")) || d.Accepts(w("b")) || d.Accepts(w("ab")) {
		t.Errorf("partial DFA completion broken")
	}
}

func TestDFABuilderPanicsOnBadTransition(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("out-of-range transition should panic")
		}
	}()
	NewDFABuilder(alphabet.New("a"), 1).AddTransition(0, "a", 5)
}

// TestBuildersPanicOnBadState holds the start and accept setters of both
// builders, and the NFA's transitions, to the range check AddTransition
// makes: SetAccept(numStates) must not make Build's dead state accepting,
// and an NFA must not store a state its subset construction cannot index.
func TestBuildersPanicOnBadState(t *testing.T) {
	alpha := alphabet.New("a")
	for name, build := range map[string]func(){
		"DFABuilder.SetStart(2)":     func() { NewDFABuilder(alpha, 2).SetStart(2) },
		"DFABuilder.SetStart(-1)":    func() { NewDFABuilder(alpha, 2).SetStart(-1) },
		"DFABuilder.SetAccept(0, 2)": func() { NewDFABuilder(alpha, 2).SetAccept(0, 2) },
		"DFABuilder.SetAccept(-1)":   func() { NewDFABuilder(alpha, 2).SetAccept(-1) },
		"NFA.AddStart(2)":            func() { NewNFA(alpha, 2).AddStart(2) },
		"NFA.AddAccept(-1)":          func() { NewNFA(alpha, 2).AddAccept(-1) },
		"NFA.AddTransition(0,a,2)":   func() { NewNFA(alpha, 2).AddTransition(0, "a", 2) },
		"NFA.AddTransition(-1,a,0)":  func() { NewNFA(alpha, 2).AddTransition(-1, "a", 0) },
		"NFA.addEpsilon(2,0)":        func() { NewNFA(alpha, 2).addEpsilon(2, 0) },
		"NFA.addEpsilon(0,-1)":       func() { NewNFA(alpha, 2).addEpsilon(0, -1) },
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "out of range [0,2)") {
					t.Errorf("%s: recovered %q, want an out-of-range panic", name, msg)
				}
			}()
			build()
		}()
	}
}

func TestDFAStepUnknownSymbol(t *testing.T) {
	d := evenAs()
	if _, ok := d.Step(0, "z"); ok {
		t.Errorf("Step on unknown symbol should report ok=false")
	}
	if _, ok := d.Step(-1, "a"); ok {
		t.Errorf("Step on invalid state should report ok=false")
	}
	if next, ok := d.Step(0, "a"); !ok || next != 1 {
		t.Errorf("Step(0,a) = (%d,%v), want (1,true)", next, ok)
	}
}

func TestBooleanOperations(t *testing.T) {
	a, b := evenAs(), endsWithAB()
	inter := product(a, b, func(x, y bool) bool { return x && y })
	union := product(a, b, func(x, y bool) bool { return x || y })
	diff := product(a, b, func(x, y bool) bool { return x && !y })
	for _, in := range []string{"", "ab", "aab", "aabab", "ba", "abab"} {
		word := w(in)
		ia, ib := a.Accepts(word), b.Accepts(word)
		if inter.Accepts(word) != (ia && ib) {
			t.Errorf("intersection wrong on %q", in)
		}
		if union.Accepts(word) != (ia || ib) {
			t.Errorf("union wrong on %q", in)
		}
		if diff.Accepts(word) != (ia && !ib) {
			t.Errorf("difference wrong on %q", in)
		}
	}
}

func TestProductPanicsOnAlphabetMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("product over different alphabets should panic")
		}
	}()
	other := NewDFABuilder(alphabet.New("x"), 1).Build()
	Equivalent(evenAs(), other)
}

func TestEquivalentAndSubset(t *testing.T) {
	a := evenAs()
	// A non-minimal automaton for the same language: four states counting
	// a's mod 2 and b's mod 2, accepting when a-count is even.
	alpha := alphabet.New("a", "b")
	b := NewDFABuilder(alpha, 4)
	// state = 2*(aMod) + bMod
	b.SetStart(0).SetAccept(0, 1)
	for aMod := 0; aMod < 2; aMod++ {
		for bMod := 0; bMod < 2; bMod++ {
			q := 2*aMod + bMod
			b.AddTransition(q, "a", 2*((aMod+1)%2)+bMod)
			b.AddTransition(q, "b", 2*aMod+(bMod+1)%2)
		}
	}
	big := b.Build()
	if !Equivalent(a, big) {
		t.Errorf("evenAs and its 4-state variant should be equivalent")
	}
	if Equivalent(a, endsWithAB()) {
		t.Errorf("different languages reported equivalent")
	}
	// L(a) ∩ L(endsWithAB) ⊆ L(a), but not the other way round.
	inter := product(a, endsWithAB(), func(x, y bool) bool { return x && y })
	if !product(inter, a, func(x, y bool) bool { return x && !y }).isEmpty() {
		t.Errorf("intersection should be a subset of each factor")
	}
	if product(a, inter, func(x, y bool) bool { return x && !y }).isEmpty() {
		t.Errorf("subset should fail in the other direction")
	}
}

func TestMinimize(t *testing.T) {
	// The 4-state mod-counting automaton minimizes to the 2-state evenAs.
	alpha := alphabet.New("a", "b")
	b := NewDFABuilder(alpha, 4)
	b.SetStart(0).SetAccept(0, 1)
	for aMod := 0; aMod < 2; aMod++ {
		for bMod := 0; bMod < 2; bMod++ {
			q := 2*aMod + bMod
			b.AddTransition(q, "a", 2*((aMod+1)%2)+bMod)
			b.AddTransition(q, "b", 2*aMod+(bMod+1)%2)
		}
	}
	big := b.Build()
	min := big.Minimize()
	if min.NumStates() != 2 {
		t.Errorf("minimal size = %d, want 2", min.NumStates())
	}
	if !Equivalent(big, min) {
		t.Errorf("minimization must preserve the language")
	}
}

func TestMinimizeRemovesUnreachable(t *testing.T) {
	alpha := alphabet.New("a")
	b := NewDFABuilder(alpha, 5)
	b.SetStart(0).SetAccept(1)
	b.AddTransition(0, "a", 1).AddTransition(1, "a", 0)
	// States 2..4 are unreachable.
	b.AddTransition(2, "a", 3).AddTransition(3, "a", 4).AddTransition(4, "a", 2)
	d := b.Build()
	if got := d.Minimize().NumStates(); got != 2 {
		t.Errorf("Minimize kept unreachable states: %d states, want 2", got)
	}
}

func TestIsEmptyAndSomeWord(t *testing.T) {
	alpha := alphabet.New("a", "b")
	empty := NewDFABuilder(alpha, 1).Build() // no accepting states
	if !empty.isEmpty() {
		t.Errorf("automaton without accepting states should be empty")
	}
	d := endsWithAB()
	if d.isEmpty() {
		t.Errorf("endsWithAB is not empty")
	}
}

func TestReverse(t *testing.T) {
	d := endsWithAB() // reversal: words starting with "ba"
	r := d.Reverse()
	cases := map[string]bool{"ba": true, "bab": true, "ab": false, "": false, "baa": true, "b": false}
	for in, want := range cases {
		if got := r.Accepts(w(in)); got != want {
			t.Errorf("Reverse.Accepts(%q) = %v, want %v", in, got, want)
		}
	}
}

func TestToNFAPreservesLanguage(t *testing.T) {
	d := endsWithAB()
	n := d.toNFA()
	for _, in := range []string{"", "ab", "aab", "ba", "abab", "abba"} {
		if d.Accepts(w(in)) != n.Accepts(w(in)) {
			t.Errorf("toNFA disagrees on %q", in)
		}
	}
}

// randomDFA builds a random complete DFA with n states over {a,b}.
func randomDFA(rng *rand.Rand, n int) *DFA {
	alpha := alphabet.New("a", "b")
	b := NewDFABuilder(alpha, n)
	b.SetStart(rng.Intn(n))
	for q := 0; q < n; q++ {
		if rng.Intn(2) == 0 {
			b.SetAccept(q)
		}
		b.AddTransition(q, "a", rng.Intn(n))
		b.AddTransition(q, "b", rng.Intn(n))
	}
	return b.Build()
}

func randomWord(rng *rand.Rand, maxLen int) []string {
	l := rng.Intn(maxLen + 1)
	out := make([]string, l)
	for i := range out {
		out[i] = []string{"a", "b"}[rng.Intn(2)]
	}
	return out
}

func TestQuickMinimizePreservesLanguage(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := randomDFA(rng, 1+rng.Intn(8))
		m := d.Minimize()
		if m.NumStates() > d.NumStates() {
			return false
		}
		for i := 0; i < 30; i++ {
			word := randomWord(rng, 12)
			if d.Accepts(word) != m.Accepts(word) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestQuickMinimalIsUnique(t *testing.T) {
	// Minimizing twice yields the same number of states, and two equivalent
	// random DFAs have minimal automata of the same size.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := randomDFA(rng, 1+rng.Intn(8))
		m := d.Minimize()
		return m.Minimize().NumStates() == m.NumStates()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestQuickReverseInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := randomDFA(rng, 1+rng.Intn(5))
		rr := d.Reverse().Reverse()
		return Equivalent(d.Minimize(), rr.Minimize())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
