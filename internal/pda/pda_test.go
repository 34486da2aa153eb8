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
}

func TestAddPushBottomPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("pushing ⊥ should panic")
		}
	}()
	New(ab, 1).AddPush(0, 0, Bottom)
}
