package nwa

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/alphabet"
	"repro/internal/nestedword"
)

// naiveAccepts is an exponential reference implementation of NNWA
// membership: it enumerates all runs explicitly, keeping the stack of
// hierarchical states.  Only usable on small words and automata; the tests
// use it to cross-validate the polynomial simulation.
func naiveAccepts(a *NNWA, n *nestedword.NestedWord) bool {
	var rec func(pos int, state int, stack []int) bool
	rec = func(pos int, state int, stack []int) bool {
		if pos == n.Len() {
			return a.IsAccepting(state)
		}
		p := n.At(pos)
		sym, ok := a.Alphabet().Index(p.Symbol)
		if !ok {
			return false
		}
		found := false
		switch p.Kind {
		case nestedword.Internal:
			a.EachInternalEdge(state, sym, func(to int) {
				found = found || rec(pos+1, to, stack)
			})
		case nestedword.Call:
			a.EachCallEdge(state, sym, func(linear, hier int) {
				found = found || rec(pos+1, linear, append(append([]int(nil), stack...), hier))
			})
		case nestedword.Return:
			if len(stack) == 0 {
				for _, q0 := range a.StartStates() {
					a.EachReturnEdge(state, q0, sym, func(to int) {
						found = found || rec(pos+1, to, stack)
					})
				}
			} else {
				hier := stack[len(stack)-1]
				rest := stack[:len(stack)-1]
				a.EachReturnEdge(state, hier, sym, func(to int) {
					found = found || rec(pos+1, to, rest)
				})
			}
		}
		return found
	}
	for _, q0 := range a.StartStates() {
		if rec(0, q0, nil) {
			return true
		}
	}
	return false
}

// someCallSomeReturnMismatch builds a nondeterministic NWA accepting the
// nested words that contain at least one matched call/return pair with
// different symbols.
func someCallSomeReturnMismatch() *NNWA {
	// States: 0 = searching, 1 = inside the guessed pair, 2 = found
	// (accepting, absorbing), 3 = marker pushed at a guessed a-call,
	// 4 = marker pushed at a guessed b-call.
	a := NewNNWA(testAlpha, 5)
	a.AddStart(0)
	a.AddAccept(2)
	for _, sym := range []string{"a", "b"} {
		// Searching: skip anything.
		a.AddInternal(0, sym, 0)
		a.AddCall(0, sym, 0, 0)
		for hier := 0; hier < 5; hier++ {
			a.AddReturn(0, hier, sym, 0)
		}
		// Inside the guessed pair we stay in state 1 and skip structure,
		// taking care to pop nested pairs back into state 1.
		a.AddInternal(1, sym, 1)
		a.AddCall(1, sym, 1, 1)
		for hier := 0; hier < 5; hier++ {
			a.AddReturn(1, hier, sym, 1)
		}
		// Found: absorb.
		a.AddInternal(2, sym, 2)
		a.AddCall(2, sym, 2, 2)
		for hier := 0; hier < 5; hier++ {
			a.AddReturn(2, hier, sym, 2)
		}
	}
	// Guess an a-labelled call whose matching return is b-labelled.
	a.AddCall(0, "a", 1, 3)
	a.AddReturn(1, 3, "b", 2)
	// Guess a b-labelled call whose matching return is a-labelled.
	a.AddCall(0, "b", 1, 4)
	a.AddReturn(1, 4, "a", 2)
	return a
}

func mismatchPredicate(n *nestedword.NestedWord) bool {
	for i := 0; i < n.Len(); i++ {
		if n.KindAt(i) == nestedword.Call {
			if j, _ := n.ReturnSuccessor(i); j != nestedword.Pending && n.SymbolAt(j) != n.SymbolAt(i) {
				return true
			}
		}
	}
	return false
}

func TestNNWAMismatchGadget(t *testing.T) {
	a := someCallSomeReturnMismatch()
	cases := map[string]bool{
		"":            false,
		"<a a>":       false,
		"<a b>":       true,
		"<a <b a> a>": true,
		"<a <b b> a>": false,
		"a b a":       false,
		"<a b":        false,
		"b> <a b>":    true,
		"<a z b>":     false, // z is outside the alphabet: every run dies
	}
	for in, want := range cases {
		n := nestedword.MustParse(in)
		if got := a.Accepts(n); got != want {
			t.Errorf("Accepts(%q) = %v, want %v", in, got, want)
		}
	}
}

func TestNNWAMismatchAgainstPredicate(t *testing.T) {
	a := someCallSomeReturnMismatch()
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 300; i++ {
		n := randomNestedWord(rng, 14)
		if got, want := a.Accepts(n), mismatchPredicate(n); got != want {
			t.Fatalf("Accepts(%v) = %v, want %v", n, got, want)
		}
	}
}

func TestNNWASimulationAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 150; trial++ {
		a := randomNNWA(rng, 1+rng.Intn(4))
		for i := 0; i < 20; i++ {
			n := randomNestedWord(rng, 8)
			if got, want := a.Accepts(n), naiveAccepts(a, n); got != want {
				t.Fatalf("trial %d: simulation=%v naive=%v on %v", trial, got, want, n)
			}
		}
	}
}

func TestNNWAAddStateAndAccessors(t *testing.T) {
	a := NewNNWA(testAlpha, 2)
	if a.NumStates() != 2 {
		t.Errorf("NumStates = %d, want 2", a.NumStates())
	}
	a.AddStart(0).AddAccept(1)
	if got := a.StartStates(); len(got) != 1 || got[0] != 0 {
		t.Errorf("StartStates = %v", got)
	}
	if !a.IsAccepting(1) || a.IsAccepting(0) {
		t.Errorf("only state 1 should be accepting")
	}
	a.AddInternal(0, "a", 1)
	a.AddInternal(0, "a", 1) // duplicates are collapsed
	var got []int
	a.EachInternalEdge(0, testAlpha.MustIndex("a"), func(to int) { got = append(got, to) })
	if len(got) != 1 {
		t.Errorf("duplicate transitions should be collapsed: %v", got)
	}
	if a.Alphabet() != testAlpha {
		t.Errorf("Alphabet accessor broken")
	}
}

func TestNNWAEmptinessAndWitness(t *testing.T) {
	a := someCallSomeReturnMismatch()
	if isEmpty(a) {
		t.Fatalf("mismatch gadget is not empty")
	}
	w, ok := findAccepted(a, a.alpha)
	if !ok || !a.Accepts(w) {
		t.Errorf("SomeWord witness %v not accepted", w)
	}
	if !mismatchPredicate(w) {
		t.Errorf("witness %v should contain a mismatching pair", w)
	}

	empty := NewNNWA(testAlpha, 2)
	empty.AddStart(0)
	empty.AddAccept(1)
	empty.AddInternal(0, "a", 0)
	if !isEmpty(empty) {
		t.Errorf("no path to the accepting state: language must be empty")
	}

	// Three accepting branches: the witness leads to the lowest-numbered
	// accepting state, so every call returns the same word.
	branches := NewNNWA(alphabet.New("a", "b", "c"), 4)
	branches.AddStart(0).AddAccept(1, 2, 3)
	branches.AddInternal(0, "a", 1).AddInternal(0, "b", 2).AddInternal(0, "c", 3)
	for i := 0; i < 200; i++ {
		if w, _ := findAccepted(branches, branches.alpha); w.String() != "a" {
			t.Fatalf("call %d: SomeWord = %v, want a", i, w)
		}
	}
}

func TestQuickEmptinessAgreesWithSampling(t *testing.T) {
	// If the analysis says the language is non-empty, the witness must be
	// accepted; if it says empty, random sampling must not find any accepted
	// word.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomNNWA(rng, 1+rng.Intn(4))
		if w, ok := findAccepted(a, a.alpha); ok {
			return a.Accepts(w)
		}
		for i := 0; i < 40; i++ {
			if a.Accepts(randomNestedWord(rng, 10)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestDeterminizePreservesLanguage(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 40; trial++ {
		a := randomNNWA(rng, 1+rng.Intn(4))
		d := a.Determinize()
		for i := 0; i < 30; i++ {
			n := randomNestedWord(rng, 10)
			if got, want := d.Accepts(n), a.Accepts(n); got != want {
				t.Fatalf("trial %d: determinized=%v nondet=%v on %v", trial, got, want, n)
			}
		}
	}
}

func TestDeterminizeMismatchGadget(t *testing.T) {
	a := someCallSomeReturnMismatch()
	d := a.Determinize()
	rng := rand.New(rand.NewSource(37))
	for i := 0; i < 300; i++ {
		n := randomNestedWord(rng, 12)
		if d.Accepts(n) != mismatchPredicate(n) {
			t.Fatalf("determinized automaton wrong on %v", n)
		}
	}
	if d.NumStates() > 1<<(4*4) {
		t.Errorf("determinization exceeded the 2^(s²) bound: %d states", d.NumStates())
	}
}

// TestDeterminizeWithinPaperBound holds Determinize to the bound of Section
// 3.2 on 1000 random NNWAs with s ∈ {2, 3} states: at most 2^(s²) linear
// states, which ReachableStates counts, and at most 2^(s²)(|Σ|+1)+1 states
// in all (2^(s²)·|Σ| hierarchical states (S, a), and the dead state).  A
// summary set cannot outgrow the bound, so the test also holds each result
// to the naive run enumeration on a few words: a construction that loses
// what the bound is about (summary pairs whose first state is reachable)
// stays inside the bound and accepts the wrong words.
func TestDeterminizeWithinPaperBound(t *testing.T) {
	rng, words := rand.New(rand.NewSource(1)), rand.New(rand.NewSource(2))
	for trial := 0; trial < 1000; trial++ {
		s := 2 + rng.Intn(2)
		a := randomNNWA(rng, s)
		d := a.Determinize()
		if bound := 1<<(s*s)*(testAlpha.Size()+1) + 1; d.NumStates() > bound {
			t.Errorf("trial %d (s = %d): %d states, bound %d", trial, s, d.NumStates(), bound)
		}
		linear := 0
		for _, r := range ReachableStates(d) {
			if r {
				linear++
			}
		}
		if linear > 1<<(s*s) {
			t.Errorf("trial %d (s = %d): %d linear states, bound %d", trial, s, linear, 1<<(s*s))
		}
		for i := 0; i < 10; i++ {
			n := randomNestedWord(words, 8)
			if got, want := d.Accepts(n), naiveAccepts(a, n); got != want {
				t.Fatalf("trial %d: determinized=%v naive=%v on %v", trial, got, want, n)
			}
		}
	}
}

func TestComplementNNWA(t *testing.T) {
	a := someCallSomeReturnMismatch()
	c := a.Determinize().Complement()
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 200; i++ {
		n := randomNestedWord(rng, 10)
		if a.Accepts(n) == c.Accepts(n) {
			t.Fatalf("complement must disagree with the original on %v", n)
		}
	}
}

// TestNNWAAddPanicsOnBadState: every constructor rejects a state outside
// [0, NumStates) with DNWABuilder's message, so NumStates counts every
// state the relations name.
func TestNNWAAddPanicsOnBadState(t *testing.T) {
	for _, c := range []struct {
		name string
		add  func(*NNWA)
		want string
	}{
		{"AddStart", func(a *NNWA) { a.AddStart(0, 2) }, "nwa: state 2 out of range [0,2)"},
		{"AddAccept", func(a *NNWA) { a.AddAccept(-1) }, "nwa: state -1 out of range [0,2)"},
		{"AddCall from", func(a *NNWA) { a.AddCall(2, "a", 0, 0) }, "nwa: state 2 out of range [0,2)"},
		{"AddCall linear", func(a *NNWA) { a.AddCall(0, "a", 3, 0) }, "nwa: state 3 out of range [0,2)"},
		{"AddCall hier", func(a *NNWA) { a.AddCall(0, "a", 0, 4) }, "nwa: state 4 out of range [0,2)"},
		{"AddInternal from", func(a *NNWA) { a.AddInternal(-2, "a", 0) }, "nwa: state -2 out of range [0,2)"},
		{"AddInternal to", func(a *NNWA) { a.AddInternal(0, "a", 5) }, "nwa: state 5 out of range [0,2)"},
		{"AddReturn lin", func(a *NNWA) { a.AddReturn(2, 0, "a", 0) }, "nwa: state 2 out of range [0,2)"},
		{"AddReturn hier", func(a *NNWA) { a.AddReturn(0, 7, "a", 0) }, "nwa: state 7 out of range [0,2)"},
		{"AddReturn to", func(a *NNWA) { a.AddReturn(0, 0, "a", 2) }, "nwa: state 2 out of range [0,2)"},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if got := recover(); got != c.want {
					t.Errorf("panic = %v, want %q", got, c.want)
				}
			}()
			c.add(NewNNWA(testAlpha, 2))
		})
	}
}
