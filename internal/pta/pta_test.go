package pta

import (
	"testing"

	"repro/internal/alphabet"
	"repro/internal/tree"
)

var cde = alphabet.New("c", "d", "e")

// stemCounter accepts the unary trees c^n(d^n(e)) for n ≥ 0: push one X per
// c-node, pop one X per d-node, the e-leaf pops ⊥.  It is a pushdown tree
// automaton for a context-free tree language that no finite-state tree
// automaton accepts (Lemma 5's flavour of example).
func stemCounter() *PTA {
	p := New(cde)
	const (
		readC  = 0
		pushed = 1
		readD  = 2
		popped = 3
		leaf   = 4
	)
	p.AddStart(readC)
	p.AddUnary(readC, "c", pushed)
	p.AddPush(pushed, readC, "X")
	p.AddUnary(readC, "d", popped)
	p.AddUnary(readD, "d", popped)
	p.AddPop(popped, "X", readD)
	p.AddLeaf(readC, "e", leaf)
	p.AddLeaf(readD, "e", leaf)
	p.AddPopBottom(leaf, leaf)
	return p
}

// stem builds the unary tree c^nc (d^nd (e)).
func stem(nc, nd int) *tree.Tree {
	t := tree.Leaf("e")
	for i := 0; i < nd; i++ {
		t = tree.New("d", t)
	}
	for i := 0; i < nc; i++ {
		t = tree.New("c", t)
	}
	return t
}

func TestStemCounterAccepts(t *testing.T) {
	p := stemCounter()
	for n := 0; n <= 5; n++ {
		if !p.Accepts(stem(n, n)) {
			t.Errorf("c^%d d^%d e should be accepted", n, n)
		}
	}
	reject := [][2]int{{1, 0}, {0, 1}, {2, 1}, {1, 2}, {3, 5}}
	for _, nm := range reject {
		if p.Accepts(stem(nm[0], nm[1])) {
			t.Errorf("c^%d d^%d e should be rejected", nm[0], nm[1])
		}
	}
	if p.Accepts(nil) {
		t.Errorf("the empty tree is never accepted")
	}
	if p.Accepts(tree.Leaf("z")) {
		t.Errorf("labels outside the alphabet are rejected")
	}
}

func TestAccessorsAndPanics(t *testing.T) {
	p := stemCounter()
	defer func() {
		if recover() == nil {
			t.Errorf("pushing ⊥ should panic")
		}
	}()
	p.AddPush(0, 0, bottom)
}
