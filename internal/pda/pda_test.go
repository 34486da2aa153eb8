package pda

import (
	"math/rand"
	"testing"

	"repro/internal/alphabet"
)

var ab = alphabet.New("a", "b")

// anbn builds a PDA accepting { a^n b^n : n ≥ 0 } by empty stack.
func anbn() *PDA {
	p := New(ab, 5)
	const (
		readA  = 0 // reading a's
		pushed = 1 // intermediate state after reading an a, before pushing
		readB  = 2 // reading b's
		popped = 3 // intermediate state after reading a b, before popping
		done   = 4 // ⊥ popped; no further input possible
	)
	p.AddStart(readA)
	p.AddRead(readA, "a", pushed)
	p.AddPush(pushed, readA, "X")
	p.AddRead(readA, "b", popped)
	p.AddRead(readB, "b", popped)
	p.AddPop(popped, "X", readB)
	p.AddPopBottom(readA, done)
	p.AddPopBottom(readB, done)
	return p
}

func w(s string) []string {
	out := make([]string, 0, len(s))
	for _, r := range s {
		out = append(out, string(r))
	}
	return out
}

func TestAnBn(t *testing.T) {
	p := anbn()
	cases := map[string]bool{
		"":       true,
		"ab":     true,
		"aabb":   true,
		"aaabbb": true,
		"a":      false,
		"b":      false,
		"abb":    false,
		"aab":    false,
		"ba":     false,
		"abab":   false,
	}
	for in, want := range cases {
		if got := p.Accepts(w(in)); got != want {
			t.Errorf("Accepts(%q) = %v, want %v", in, got, want)
		}
	}
	if p.Accepts([]string{"z"}) {
		t.Errorf("symbols outside the alphabet must be rejected")
	}
}

func TestEqualCountsPDA(t *testing.T) {
	// Equal numbers of a's and b's, in any order.
	p := New(ab, 4)
	const (
		ready  = 0
		afterA = 1
		afterB = 2
		done   = 3
	)
	p.AddStart(ready)
	p.AddRead(ready, "a", afterA)
	p.AddRead(ready, "b", afterB)
	p.AddPush(afterA, ready, "A")
	p.AddPop(afterA, "B", ready)
	p.AddPush(afterB, ready, "B")
	p.AddPop(afterB, "A", ready)
	p.AddPopBottom(ready, done)

	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 300; i++ {
		l := rng.Intn(14)
		word := make([]string, l)
		count := 0
		for j := range word {
			if rng.Intn(2) == 0 {
				word[j] = "a"
				count++
			} else {
				word[j] = "b"
				count--
			}
		}
		if got, want := p.Accepts(word), count == 0; got != want {
			t.Fatalf("Accepts(%v) = %v, want %v", word, got, want)
		}
	}
}

func TestEmptiness(t *testing.T) {
	if anbn().isEmpty() {
		t.Errorf("a^n b^n is not empty")
	}
	// An automaton that can never empty its stack.
	p := New(ab, 2)
	p.AddStart(0)
	p.AddRead(0, "a", 1)
	p.AddPush(1, 0, "X")
	if !p.isEmpty() {
		t.Errorf("no pop transitions: the language must be empty")
	}
	// Reachability matters: the ⊥-popping state is unreachable.
	q := New(ab, 3)
	q.AddStart(0)
	q.AddRead(0, "a", 0)
	q.AddPopBottom(2, 2)
	if !q.isEmpty() {
		t.Errorf("the pop-⊥ state is unreachable, so the language must be empty")
	}
	// And non-emptiness via a push-pop round trip.
	r := New(ab, 4)
	r.AddStart(0)
	r.AddPush(0, 1, "X")
	r.AddRead(1, "a", 2)
	r.AddPop(2, "X", 3)
	r.AddPopBottom(3, 3)
	if r.isEmpty() {
		t.Errorf("the word \"a\" is accepted, so the language is not empty")
	}
}

func TestSummariesBasic(t *testing.T) {
	p := anbn()
	r := p.summaries()
	// Reflexivity.
	for q := 0; q < p.NumStates(); q++ {
		if !r[[2]int{q, q}] {
			t.Errorf("summaries must be reflexive at %d", q)
		}
	}
	// Reading "ab" with a balanced push/pop yields a summary from the start
	// state back to a state that can pop ⊥.
	if !r[[2]int{0, 2}] {
		t.Errorf("expected a summary from state 0 to state 2 (via a balanced a/b block)")
	}
}

func TestAccessors(t *testing.T) {
	p := anbn()
	if p.NumStates() != 5 {
		t.Errorf("accessors broken")
	}
	if got := p.StartStates(); len(got) != 1 || got[0] != 0 {
		t.Errorf("StartStates = %v", got)
	}
	if got := p.Reads(0, "a"); len(got) != 1 || got[0] != 1 {
		t.Errorf("Reads = %v", got)
	}
	if got := p.Reads(0, "z"); got != nil {
		t.Errorf("Reads of unknown symbols should be nil")
	}
	if len(p.Pushes()) != 1 || len(p.Pops()) != 3 {
		t.Errorf("Pushes/Pops accessors broken: %v %v", p.Pushes(), p.Pops())
	}
	q := p.addState()
	if q != 5 || p.NumStates() != 6 {
		t.Errorf("AddState broken")
	}
}

func TestAddPushBottomPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("pushing ⊥ should panic")
		}
	}()
	New(ab, 1).AddPush(0, 0, Bottom)
}
