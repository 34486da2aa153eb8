package pnwa

import (
	"math/rand"
	"testing"

	"repro/internal/alphabet"
	"repro/internal/nestedword"
	"repro/internal/pda"
	"repro/internal/sat"
)

var ab = alphabet.New("a", "b")

func randomNested(rng *rand.Rand, maxLen int) *nestedword.NestedWord {
	l := rng.Intn(maxLen + 1)
	kinds := []nestedword.Kind{nestedword.Internal, nestedword.Call, nestedword.Return}
	ps := make([]nestedword.Position, l)
	for i := range ps {
		ps[i] = nestedword.Position{
			Symbol: []string{"a", "b"}[rng.Intn(2)],
			Kind:   kinds[rng.Intn(3)],
		}
	}
	return nestedword.New(ps...)
}

func TestEqualCountsAutomaton(t *testing.T) {
	p := EqualCounts()
	cases := map[string]bool{
		"":            true,
		"a b":         true,
		"a a b b":     true,
		"<a b>":       true,
		"<a <b b> a>": true,
		"a":           false,
		"<a a>":       false,
		"<a b b>":     false,
		"b> <a":       true,
		"<a <a b> b>": true,
	}
	for in, want := range cases {
		n := nestedword.MustParse(in)
		if got := p.Accepts(n); got != want {
			t.Errorf("Accepts(%q) = %v, want %v", in, got, want)
		}
	}
}

func TestEqualCountsAgainstPredicate(t *testing.T) {
	p := EqualCounts()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		n := randomNested(rng, 12)
		if got, want := p.Accepts(n), equalCountsPredicate(n); got != want {
			t.Fatalf("Accepts(%v) = %v, want %v", n, got, want)
		}
	}
}

func TestEqualCountsIsNotEmpty(t *testing.T) {
	p := EqualCounts()
	if p.IsEmpty() {
		t.Errorf("the equal-counts language contains the empty word")
	}
	if p.SummaryCount() == 0 {
		t.Errorf("the saturation should derive at least one summary")
	}
}

func TestTypedConstructionPanics(t *testing.T) {
	p := New(ab, 2)
	p.markHierarchical(0)
	defer func() {
		if recover() == nil {
			t.Errorf("a call from a hierarchical state to a linear state should panic")
		}
	}()
	p.AddCall(0, "a", 1, 1)
}

func TestStateHelpers(t *testing.T) {
	const lin = 0
	p := New(ab, 2)
	p.AddStart(lin)
	if got := p.startStates(); len(got) != 1 || got[0] != lin {
		t.Errorf("StartStates = %v", got)
	}
	if p.NumStates() != 2 {
		t.Errorf("accessors broken")
	}
	p.AddPopBottom(lin, lin)
	if got := p.poppableBottom(); len(got) != 1 || got[0] != lin {
		t.Errorf("PoppableBottom = %v", got)
	}
}

func TestPushBottomPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("pushing ⊥ should panic")
		}
	}()
	New(ab, 1).AddPush(0, 0, bottom)
}

// dyckPDA accepts the tagged words of well-matched nested words over {a}
// whose calls and returns are balanced; used to exercise the Lemma 4
// embedding.
func dyckPDA() *pda.PDA {
	tagged := alphabet.New("<a", "a", "a>")
	p := pda.New(tagged, 4)
	const (
		ready     = 0
		afterOpen = 1
		afterShut = 2
		done      = 3
	)
	p.AddStart(ready)
	p.AddRead(ready, "<a", afterOpen)
	p.AddPush(afterOpen, ready, "X")
	p.AddRead(ready, "a", ready)
	p.AddRead(ready, "a>", afterShut)
	p.AddPop(afterShut, "X", ready)
	p.AddPopBottom(ready, done)
	return p
}

func TestFromPDALemma4(t *testing.T) {
	machine := dyckPDA()
	alphaA := alphabet.New("a")
	p := FromPDA(machine, alphaA)
	cases := map[string]bool{
		"":            true,
		"<a a>":       true,
		"<a <a a> a>": true,
		"<a a":        false, // the pending call is never balanced
		"<a":          false,
		"a>":          false,
		"a a":         true,
		"<a a> a>":    false,
	}
	for in, want := range cases {
		n := nestedword.MustParse(in)
		if got := p.Accepts(n); got != want {
			t.Errorf("Accepts(%q) = %v, want %v", in, got, want)
		}
		// Lemma 4: the pushdown NWA agrees with the PDA on the tagged word.
		tagged := make([]string, n.Len())
		for i := 0; i < n.Len(); i++ {
			switch n.KindAt(i) {
			case nestedword.Call:
				tagged[i] = "<" + n.SymbolAt(i)
			case nestedword.Return:
				tagged[i] = n.SymbolAt(i) + ">"
			default:
				tagged[i] = n.SymbolAt(i)
			}
		}
		if machine.Accepts(tagged) != p.Accepts(n) {
			t.Errorf("PDA and pushdown NWA disagree on %q", in)
		}
	}
	if p.IsEmpty() {
		t.Errorf("the embedded Dyck language is not empty")
	}
}

func TestCNFReductionAgainstDPLL(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		numVars := 1 + rng.Intn(5)
		numClauses := 1 + rng.Intn(6)
		f := sat.Random3CNF(rng, numVars, numClauses)
		inst := NewCNFMembershipInstance(f)
		if got, want := inst.Satisfiable(), f.Satisfiable(); got != want {
			t.Fatalf("trial %d: reduction=%v DPLL=%v for %v", trial, got, want, f)
		}
	}
}

func TestCNFReductionKnownInstances(t *testing.T) {
	// (x1 ∨ x2) ∧ (¬x1 ∨ x2) ∧ (¬x2): satisfiable? x2 must be false (clause
	// 3), then clause 1 forces x1, clause 2 forces ¬x1 → unsatisfiable.
	unsat := sat.New(2, sat.Clause{1, 2}, sat.Clause{-1, 2}, sat.Clause{-2})
	if NewCNFMembershipInstance(unsat).Satisfiable() {
		t.Errorf("reduction should reject the unsatisfiable instance")
	}
	// (x1 ∨ ¬x2) ∧ (x2): satisfiable with x1 = x2 = true.
	satf := sat.New(2, sat.Clause{1, -2}, sat.Clause{2})
	if !NewCNFMembershipInstance(satf).Satisfiable() {
		t.Errorf("reduction should accept the satisfiable instance")
	}
}

func TestCNFWordShape(t *testing.T) {
	w := cNFWord(3, 2)
	if w.Len() != 2*(3+2) {
		t.Fatalf("word length = %d, want 10", w.Len())
	}
	if !w.IsWellMatched() || w.Depth() != 1 {
		t.Errorf("the reduction word is a sequence of flat blocks")
	}
	inst := NewCNFMembershipInstance(sat.New(3, sat.Clause{1}, sat.Clause{-2}))
	if !inst.Word.Equal(cNFWord(3, 2)) {
		t.Errorf("instance word should match CNFWord(v, s)")
	}
}

func TestCNFReductionWordRejectedWhenMalformed(t *testing.T) {
	// The reduction is about the exact word (⟨a a^v a⟩)^s.  Words with more
	// blocks than clauses, or with blocks of the wrong width, are rejected
	// because the spine counts blocks and each branch consumes exactly v
	// internal positions.
	f := sat.New(2, sat.Clause{1}, sat.Clause{2})
	inst := NewCNFMembershipInstance(f)
	if !inst.Satisfiable() {
		t.Fatalf("the instance is satisfiable")
	}
	extraBlock := cNFWord(f.NumVars, f.NumClauses()+1)
	if inst.Automaton.acceptsWithin(extraBlock, f.NumVars+2) {
		t.Errorf("a word with an extra block should not be accepted")
	}
	wideBlocks := cNFWord(f.NumVars+1, f.NumClauses())
	if inst.Automaton.acceptsWithin(wideBlocks, f.NumVars+3) {
		t.Errorf("a word with over-wide blocks should not be accepted")
	}
}
