package nwa

import (
	"math/rand"
	"testing"

	"repro/internal/alphabet"
	"repro/internal/nestedword"
)

// matchedSymbols builds a deterministic NWA over {a,b} accepting exactly the
// well-matched nested words in which every matched call/return pair carries
// the same symbol.  It exercises information flow across hierarchical edges:
// the call pushes its symbol and the nesting flag, the return checks them.
func matchedSymbols() *DNWA {
	const (
		topOK    = 0 // at top level, everything consistent so far (accepting)
		insideOK = 1 // inside at least one open call
		pushTopA = 2 // pushed at a top-level a-call
		pushTopB = 3
		pushInsA = 4 // pushed at a nested a-call
		pushInsB = 5
	)
	b := NewDNWABuilder(testAlpha, 6)
	b.SetStart(topOK).SetAccept(topOK)
	for _, sym := range []string{"a", "b"} {
		b.Internal(topOK, sym, topOK)
		b.Internal(insideOK, sym, insideOK)
	}
	b.Call(topOK, "a", insideOK, pushTopA)
	b.Call(topOK, "b", insideOK, pushTopB)
	b.Call(insideOK, "a", insideOK, pushInsA)
	b.Call(insideOK, "b", insideOK, pushInsB)
	// Returns: the symbol must match the pushed symbol, and the pushed flag
	// restores the nesting level.  Everything else falls into the implicit
	// dead state.
	b.Return(insideOK, pushTopA, "a", topOK)
	b.Return(insideOK, pushTopB, "b", topOK)
	b.Return(insideOK, pushInsA, "a", insideOK)
	b.Return(insideOK, pushInsB, "b", insideOK)
	return b.Build()
}

// matchedSymbolsPredicate is the reference semantics for matchedSymbols.
func matchedSymbolsPredicate(n *nestedword.NestedWord) bool {
	if !n.IsWellMatched() {
		return false
	}
	for i := 0; i < n.Len(); i++ {
		if n.KindAt(i) == nestedword.Call {
			j, _ := n.ReturnSuccessor(i)
			if n.SymbolAt(j) != n.SymbolAt(i) {
				return false
			}
		}
	}
	return true
}

// evenAs builds a flat deterministic NWA accepting nested words with an even
// number of a-labelled positions (of any kind).
func evenAs() *DNWA {
	b := NewDNWABuilder(testAlpha, 2)
	b.SetStart(0).SetAccept(0)
	b.Internal(0, "a", 1).Internal(1, "a", 0).Internal(0, "b", 0).Internal(1, "b", 1)
	b.Call(0, "a", 1, 0).Call(1, "a", 0, 0).Call(0, "b", 0, 0).Call(1, "b", 1, 0)
	for lin := 0; lin < 3; lin++ {
		for hier := 0; hier < 3; hier++ {
			b.Return(lin, hier, "a", flipState(lin))
			b.Return(lin, hier, "b", lin)
		}
	}
	return b.Build()
}

func flipState(q int) int {
	if q == 0 {
		return 1
	}
	if q == 1 {
		return 0
	}
	return q
}

func evenAsPredicate(n *nestedword.NestedWord) bool {
	count := 0
	for i := 0; i < n.Len(); i++ {
		if n.SymbolAt(i) == "a" {
			count++
		}
	}
	return count%2 == 0
}

func TestMatchedSymbolsAccepts(t *testing.T) {
	d := matchedSymbols()
	cases := map[string]bool{
		"":                  true,
		"a b":               true,
		"<a a>":             true,
		"<a b a>":           true,
		"<a <b b> a>":       true,
		"<a b>":             false,
		"<a a> b>":          false,
		"<a <b a> b>":       false,
		"<a":                false,
		"a>":                false,
		"<a <a a> a> b":     true,
		"<b <a a> <b b> b>": true,
	}
	for in, want := range cases {
		n := nestedword.MustParse(in)
		if got := d.Accepts(n); got != want {
			t.Errorf("Accepts(%q) = %v, want %v", in, got, want)
		}
	}
}

func TestMatchedSymbolsAgainstPredicateRandom(t *testing.T) {
	d := matchedSymbols()
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		n := randomNestedWord(rng, 20)
		if got, want := d.Accepts(n), matchedSymbolsPredicate(n); got != want {
			t.Fatalf("Accepts(%v) = %v, want %v", n, got, want)
		}
	}
}

func TestEvenAsIsFlatAndCorrect(t *testing.T) {
	d := evenAs()
	if !d.IsFlat() {
		t.Errorf("evenAs should be flat")
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		n := randomNestedWord(rng, 15)
		if got, want := d.Accepts(n), evenAsPredicate(n); got != want {
			t.Fatalf("Accepts(%v) = %v, want %v", n, got, want)
		}
	}
}

func TestPendingReturnUsesInitialState(t *testing.T) {
	// Build an automaton that accepts exactly the single pending return "a>"
	// by distinguishing the hierarchical initial state at returns.
	b := NewDNWABuilder(testAlpha, 2)
	b.SetStart(0).SetAccept(1)
	b.Return(0, 0, "a", 1)
	d := b.Build()
	if !d.Accepts(nestedword.MustParse("a>")) {
		t.Errorf("pending return should use the initial state on the hierarchical edge")
	}
	if d.Accepts(nestedword.MustParse("<a a>")) {
		t.Errorf("matched return pushes the dead hierarchical state here and must not accept")
	}
}

func TestComplementDNWA(t *testing.T) {
	d := matchedSymbols()
	c := d.Complement()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		n := randomNestedWord(rng, 15)
		if d.Accepts(n) == c.Accepts(n) {
			t.Fatalf("complement must disagree with the original on %v", n)
		}
	}
}

func TestBooleanProducts(t *testing.T) {
	a, b := matchedSymbols(), evenAs()
	inter := Intersect(a, b)
	union := Union(a, b)
	diff := Intersect(a, b.Complement())
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		n := randomNestedWord(rng, 12)
		ia, ib := a.Accepts(n), b.Accepts(n)
		if inter.Accepts(n) != (ia && ib) {
			t.Fatalf("Intersect wrong on %v", n)
		}
		if union.Accepts(n) != (ia || ib) {
			t.Fatalf("Union wrong on %v", n)
		}
		if diff.Accepts(n) != (ia && !ib) {
			t.Fatalf("Difference wrong on %v", n)
		}
	}
}

func TestProductPanicsOnAlphabetMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("product over different alphabets should panic")
		}
	}()
	other := NewDNWABuilder(alphabet.New("x"), 1).Build()
	Intersect(matchedSymbols(), other)
}

func TestIsEmptyAndSomeWord(t *testing.T) {
	// An automaton whose accepting state is unreachable.
	b := NewDNWABuilder(testAlpha, 3)
	b.SetStart(0).SetAccept(2)
	b.Internal(0, "a", 1).Internal(1, "a", 0)
	empty := b.Build()
	if !empty.IsEmpty() {
		t.Errorf("unreachable accepting state should give an empty language")
	}
	if _, ok := empty.SomeWord(); ok {
		t.Errorf("SomeWord on an empty language should fail")
	}

	d := matchedSymbols()
	if d.IsEmpty() {
		t.Errorf("matchedSymbols is not empty")
	}
	w, ok := d.SomeWord()
	if !ok {
		t.Fatalf("SomeWord should produce a witness")
	}
	if !d.Accepts(w) {
		t.Errorf("SomeWord witness %v is not accepted", w)
	}
}

func TestSomeWordNeedsHierarchy(t *testing.T) {
	// Intersecting matchedSymbols with "even number of a's" still has
	// witnesses; the witness must satisfy both predicates.
	inter := Intersect(matchedSymbols(), evenAs())
	w, ok := inter.SomeWord()
	if !ok {
		t.Fatalf("intersection should be non-empty")
	}
	if !matchedSymbolsPredicate(w) || !evenAsPredicate(w) {
		t.Errorf("witness %v violates the intersection predicates", w)
	}
}

func TestEquivalenceAndSubset(t *testing.T) {
	d := matchedSymbols()
	if !Equivalent(d, d) {
		t.Errorf("an automaton must be equivalent to itself")
	}
	if Equivalent(d, d.Complement()) {
		t.Errorf("an automaton must not be equivalent to its complement")
	}
	// L(x) ⊆ L(y) exactly when L(x) ∩ L(y) = L(x).
	inter := Intersect(d, evenAs())
	if !Equivalent(Intersect(inter, d), inter) || !Equivalent(Intersect(inter, evenAs()), inter) {
		t.Errorf("an intersection must be included in both factors")
	}
	if Equivalent(Intersect(d, inter), d) {
		t.Errorf("matchedSymbols is not included in the intersection")
	}
	if ce, ok := Intersect(d, inter.Complement()).SomeWord(); !ok {
		t.Errorf("a word of L(d) outside the intersection should exist")
	} else if !d.Accepts(ce) || inter.Accepts(ce) {
		t.Errorf("witness %v does not separate the languages", ce)
	}
}

func TestEquivalentPanicsOnAlphabetMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("equivalence over different alphabets should panic")
		}
	}()
	other := NewDNWABuilder(alphabet.New("x"), 1).Build()
	Equivalent(matchedSymbols(), other)
}

func TestAcceptingStatesAndDead(t *testing.T) {
	d := matchedSymbols()
	for q := 0; q < d.NumStates(); q++ {
		if d.IsAccepting(q) != (q == 0) {
			t.Errorf("IsAccepting(%d) = %v, want only state 0 accepting", q, d.IsAccepting(q))
		}
	}
	if d.IsAccepting(d.Dead()) {
		t.Errorf("the dead state must not be accepting")
	}
	if d.NumStates() != 7 {
		t.Errorf("NumStates = %d, want 7 (6 + dead)", d.NumStates())
	}
	// Unknown symbols drive every step function to the dead state.
	if lin, hier := d.StepCall(0, "z"); lin != d.Dead() || hier != d.Dead() {
		t.Errorf("StepCall on unknown symbol should go to the dead state")
	}
	if d.StepInternal(0, "z") != d.Dead() || d.StepReturn(0, 0, "z") != d.Dead() {
		t.Errorf("unknown symbols should go to the dead state")
	}
}

func TestBuilderPanicsOnBadState(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("out-of-range state should panic")
		}
	}()
	NewDNWABuilder(testAlpha, 2).Internal(0, "a", 10)
}

func TestDNWAToNondeterministic(t *testing.T) {
	d := matchedSymbols()
	n := d.ToNondeterministic()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 100; i++ {
		w := randomNestedWord(rng, 10)
		if d.Accepts(w) != n.Accepts(w) {
			t.Fatalf("ToNondeterministic disagrees on %v", w)
		}
	}
}
