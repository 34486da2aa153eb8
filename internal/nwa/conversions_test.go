package nwa

import (
	"math/rand"
	"testing"

	"repro/internal/nestedword"
	"repro/internal/word"
)

func TestToWeakIsWeakAndEquivalent(t *testing.T) {
	d := matchedSymbols()
	w := d.ToWeak()
	if !w.IsWeak() {
		t.Fatalf("ToWeak must produce a weak automaton")
	}
	if d.IsWeak() {
		t.Errorf("matchedSymbols is not weak (it propagates symbols on hierarchical edges)")
	}
	if !Equivalent(d, w) {
		t.Fatalf("ToWeak must preserve the language")
	}
	// Theorem 1 with the top-level marker: one state per (live state,
	// call-parent) pair plus the dead state, inside the s·(|Σ|+1) bound.
	want := (d.NumStates()-1)*(testAlpha.Size()+1) + 1
	if w.NumStates() != want || want > d.NumStates()*(testAlpha.Size()+1) {
		t.Errorf("weak automaton has %d states, want %d", w.NumStates(), want)
	}
}

func TestToWeakRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 12; trial++ {
		d := randomDNWA(rng, 2+rng.Intn(3))
		if trial%2 == 1 {
			d = d.Complement() // an accepting dead state must stay accepting
		}
		w := d.ToWeak()
		if !w.IsWeak() {
			t.Fatalf("trial %d: result not weak", trial)
		}
		for i := 0; i < 60; i++ {
			n := randomNestedWord(rng, 12)
			if d.Accepts(n) != w.Accepts(n) {
				t.Fatalf("trial %d: weak conversion differs on %v", trial, n)
			}
			// An out-of-alphabet label drives both automata to their dead
			// states, which must agree on acceptance.
			ps := n.Positions()
			at := rng.Intn(len(ps) + 1)
			ps = append(ps[:at:at], append([]nestedword.Position{{Symbol: "z", Kind: nestedword.Internal}}, ps[at:]...)...)
			if z := nestedword.New(ps...); d.Accepts(z) != w.Accepts(z) {
				t.Fatalf("trial %d: weak conversion differs on %v", trial, z)
			}
		}
	}
}

func TestFlatConversionsTheorem2(t *testing.T) {
	// Build a random DFA over the tagged alphabet, view it as a flat NWA,
	// and check Theorem 2's correspondence on random nested words: the flat
	// NWA accepts n iff the DFA accepts nw_w(n).
	rng := rand.New(rand.NewSource(53))
	tagged := TaggedAlphabet(testAlpha)
	for trial := 0; trial < 10; trial++ {
		numStates := 2 + rng.Intn(5)
		b := word.NewDFABuilder(tagged, numStates)
		b.SetStart(rng.Intn(numStates))
		for q := 0; q < numStates; q++ {
			if rng.Intn(2) == 0 {
				b.SetAccept(q)
			}
			for _, sym := range tagged.Symbols() {
				b.AddTransition(q, sym, rng.Intn(numStates))
			}
		}
		dfa := b.Build()
		flat := FlatFromDFA(dfa, testAlpha)
		if !flat.IsFlat() {
			t.Fatalf("FlatFromDFA must produce a flat automaton")
		}
		for i := 0; i < 80; i++ {
			n := randomNestedWord(rng, 12)
			if flat.Accepts(n) != dfa.Accepts(TaggedWord(n)) {
				t.Fatalf("trial %d: flat NWA and DFA disagree on %v", trial, n)
			}
		}
		// Converting back gives an equivalent DFA.
		back := FlatToDFA(flat)
		for i := 0; i < 80; i++ {
			n := randomNestedWord(rng, 12)
			if back.Accepts(TaggedWord(n)) != dfa.Accepts(TaggedWord(n)) {
				t.Fatalf("trial %d: FlatToDFA round trip differs on %v", trial, n)
			}
		}
	}
}

func TestTaggedWordHelpers(t *testing.T) {
	n := nestedword.MustParse("<a b a> c")
	tw := TaggedWord(n)
	want := []string{"<a", "b", "a>", "c"}
	for i := range want {
		if tw[i] != want[i] {
			t.Fatalf("TaggedWord = %v, want %v", tw, want)
		}
	}
	if taggedCall("a") != "<a" || taggedInternal("a") != "a" || taggedReturn("a") != "a>" {
		t.Errorf("tagged symbol helpers broken")
	}
	if TaggedAlphabet(testAlpha).Size() != 6 {
		t.Errorf("tagged alphabet of Σ={a,b} must have 6 symbols")
	}
}

func TestFlatFromWordDFAOverPlainAlphabet(t *testing.T) {
	// The linear-order query "a before b" as a DFA over Σ, lifted to a flat
	// NWA: it must ignore the call/return structure entirely.
	dfa := word.CompileRegexDFA(word.LinearOrderQuery("a", "b"), testAlpha)
	flat := FlatFromWordDFAOverPlainAlphabet(dfa, testAlpha)
	if !flat.IsFlat() {
		t.Fatalf("lifted automaton must be flat")
	}
	cases := map[string]bool{
		"a b":         true,
		"<a <b b> a>": true,
		"b a":         false,
		"<b a>":       false,
		"b> <a b":     true,
	}
	for in, want := range cases {
		if got := flat.Accepts(nestedword.MustParse(in)); got != want {
			t.Errorf("Accepts(%q) = %v, want %v", in, got, want)
		}
	}
}

func TestToBottomUpOnWellMatchedWords(t *testing.T) {
	d := matchedSymbols()
	bu := d.ToBottomUp()
	if !bu.IsBottomUp() {
		t.Fatalf("ToBottomUp must produce a bottom-up automaton")
	}
	if !bu.IsWeak() {
		t.Fatalf("ToBottomUp must produce a weak automaton")
	}
	rng := rand.New(rand.NewSource(59))
	for i := 0; i < 300; i++ {
		n := randomWellMatched(rng, 16)
		if d.Accepts(n) != bu.Accepts(n) {
			t.Fatalf("bottom-up conversion differs on well-matched word %v", n)
		}
	}
}

func TestToBottomUpRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 8; trial++ {
		d := randomDNWA(rng, 2+rng.Intn(2))
		bu := d.ToBottomUp()
		if !bu.IsBottomUp() {
			t.Fatalf("trial %d: result not bottom-up", trial)
		}
		for i := 0; i < 60; i++ {
			n := randomWellMatched(rng, 12)
			if d.Accepts(n) != bu.Accepts(n) {
				t.Fatalf("trial %d: differs on %v", trial, n)
			}
		}
	}
}

func TestBottomUpCannotSeePrefixOfPendingCall(t *testing.T) {
	// Section 3.4: the language {a⟨a} is accepted by a flat NWA but not by
	// any bottom-up NWA.  We build the flat automaton and verify that its
	// bottom-up conversion (which is only guaranteed on well-matched words)
	// indeed behaves identically on well-matched words while the pending
	// call example is out of scope.
	b := NewDNWABuilder(testAlpha, 3)
	b.SetStart(0).SetAccept(2)
	b.Internal(0, "a", 1)
	b.Call(1, "a", 2, 0)
	flat := b.Build()
	target := nestedword.MustParse("a <a")
	if !flat.Accepts(target) {
		t.Fatalf("flat automaton should accept a⟨a")
	}
	bu := flat.ToBottomUp()
	rng := rand.New(rand.NewSource(67))
	for i := 0; i < 200; i++ {
		n := randomWellMatched(rng, 10)
		if flat.Accepts(n) != bu.Accepts(n) {
			t.Fatalf("bottom-up conversion must agree on well-matched words, differs on %v", n)
		}
	}
	// A bottom-up automaton accepting a⟨a would also accept n⟨a for any n;
	// check the defining property of bottom-up automata on the converted
	// machine: the linear successor of a call does not depend on the state.
	if !bu.IsBottomUp() {
		t.Errorf("conversion must be bottom-up")
	}
}

func TestBottomUpStateBound(t *testing.T) {
	if got := BottomUpStateBound(2, 2); got != 8 {
		t.Errorf("BottomUpStateBound(2,2) = %v, want 8", got)
	}
	if got := BottomUpStateBound(3, 1); got != 27 {
		t.Errorf("BottomUpStateBound(3,1) = %v, want 27", got)
	}
}

func TestToJoinlessPreservesLanguage(t *testing.T) {
	a := someCallSomeReturnMismatch()
	j := a.ToJoinless()
	if j.NumStates() != JoinlessStateBound(a.NumStates(), testAlpha.Size()) {
		t.Errorf("joinless automaton size %d does not match the reported bound %d",
			j.NumStates(), JoinlessStateBound(a.NumStates(), testAlpha.Size()))
	}
	rng := rand.New(rand.NewSource(71))
	for i := 0; i < 200; i++ {
		n := randomNoPendingCalls(rng, 12)
		if got, want := j.Accepts(n), a.Accepts(n); got != want {
			t.Fatalf("joinless conversion differs on %v: got %v want %v", n, got, want)
		}
	}
}

func TestToJoinlessRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for trial := 0; trial < 10; trial++ {
		a := randomNNWA(rng, 2+rng.Intn(3))
		j := a.ToJoinless()
		for i := 0; i < 40; i++ {
			n := randomNoPendingCalls(rng, 10)
			if got, want := j.Accepts(n), a.Accepts(n); got != want {
				t.Fatalf("trial %d: joinless differs on %v: got %v want %v", trial, n, got, want)
			}
		}
		// On arbitrary words the conversion may only over-approximate
		// (L(A) ⊆ L(B)); verify the inclusion direction.
		for i := 0; i < 40; i++ {
			n := randomNestedWord(rng, 10)
			if a.Accepts(n) && !j.Accepts(n) {
				t.Fatalf("trial %d: joinless conversion lost the word %v", trial, n)
			}
		}
	}
}

func TestJoinlessTypingPanics(t *testing.T) {
	j := NewJNWA(testAlpha, 2)
	j.MarkHierarchical(0)
	defer func() {
		if recover() == nil {
			t.Errorf("a joinless call from a hierarchical state to a linear state should panic")
		}
	}()
	j.AddCall(0, "a", 1, 1)
}

func TestJNWADirectConstruction(t *testing.T) {
	// A joinless automaton accepting exactly the single pending call "<a":
	// state 0 (linear, initial), state 1 (linear, accepting), state 2
	// (hierarchical dead marker pushed at the call).
	j := NewJNWA(testAlpha, 3)
	j.MarkHierarchical(2)
	j.AddStart(0)
	j.AddAccept(1)
	j.AddCall(0, "a", 1, 2)
	cases := map[string]bool{
		"<a":    true,
		"":      false,
		"<a a>": false,
		"<a <a": false,
		"a":     false,
		"<b":    false,
	}
	for in, want := range cases {
		if got := j.Accepts(nestedword.MustParse(in)); got != want {
			t.Errorf("Accepts(%q) = %v, want %v", in, got, want)
		}
	}
	if isEmpty(j.toNNWA()) {
		t.Errorf("the language {<a} is not empty")
	}
	if !j.IsDeterministic() {
		t.Errorf("this automaton is deterministic")
	}
	if j.IsTopDown() {
		t.Errorf("mode predicates wrong: automaton mixes linear and hierarchical states")
	}
}

func TestJNWAStateHelpers(t *testing.T) {
	const lin, hier = 0, 1
	j := NewJNWA(testAlpha, 2)
	j.MarkHierarchical(hier)
	j.AddStart(lin)
	j.AddAccept(hier)
	if got := j.startStates(); len(got) != 1 || got[0] != lin {
		t.Errorf("StartStates = %v", got)
	}
	if j.NumStates() != 2 {
		t.Errorf("accessors broken")
	}
	// Nondeterminism check.
	j.addInternal(lin, "a", lin)
	j.addInternal(lin, "a", hier)
	if j.IsDeterministic() {
		t.Errorf("two internal successors should make the automaton nondeterministic")
	}
}

func TestFlatAutomatonAsJoinless(t *testing.T) {
	// A flat automaton is a joinless automaton with Ql = Q (Section 3.5).
	// Build the "even number of a's" automaton directly as a joinless
	// automaton with only linear states and check it against the flat DNWA.
	j := NewJNWA(testAlpha, 2)
	j.AddStart(0)
	j.AddAccept(0)
	j.addInternal(0, "a", 1).addInternal(1, "a", 0)
	j.addInternal(0, "b", 0).addInternal(1, "b", 1)
	j.AddCall(0, "a", 1, 0).AddCall(1, "a", 0, 0)
	j.AddCall(0, "b", 0, 0).AddCall(1, "b", 1, 0)
	j.AddReturn(0, "a", 1).AddReturn(1, "a", 0)
	j.AddReturn(0, "b", 0).AddReturn(1, "b", 1)
	d := evenAs()
	rng := rand.New(rand.NewSource(79))
	for i := 0; i < 200; i++ {
		n := randomNestedWord(rng, 12)
		if j.Accepts(n) != d.Accepts(n) {
			t.Fatalf("joinless flat automaton differs from the flat DNWA on %v", n)
		}
	}
}

func TestDeterminizationOfWeakStaysEquivalent(t *testing.T) {
	// Determinize(ToNondeterministic(weak automaton)) stays equivalent;
	// exercises the full pipeline on a non-trivial automaton.
	d := matchedSymbols().ToWeak()
	nd := d.ToNondeterministic().Determinize()
	rng := rand.New(rand.NewSource(83))
	for i := 0; i < 150; i++ {
		n := randomNestedWord(rng, 10)
		if d.Accepts(n) != nd.Accepts(n) {
			t.Fatalf("pipeline changed the language on %v", n)
		}
	}
}
