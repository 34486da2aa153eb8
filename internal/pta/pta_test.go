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
	p := New(cde, 5)
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

func TestBinaryForkCopiesStack(t *testing.T) {
	// Each child of a binary node receives its own copy of the stack: the
	// automaton below pushes one X at the root and requires both children to
	// pop it before their leaves.
	alpha := alphabet.New("r", "l")
	p := New(alpha, 4)
	const (
		root    = 0
		pushed  = 1
		child   = 2
		leafEnd = 3
	)
	p.AddStart(root)
	p.AddPush(root, pushed, "X")
	p.addBinary(pushed, "r", child, child)
	p.AddPop(child, "X", leafEnd)
	p.AddLeaf(leafEnd, "l", leafEnd)
	p.AddPopBottom(leafEnd, leafEnd)

	good := tree.New("r", tree.Leaf("l"), tree.Leaf("l"))
	if !p.Accepts(good) {
		t.Errorf("both children can pop their own copy of X")
	}
	// A deeper right child cannot pop X twice, so the tree is rejected.
	bad := tree.New("r", tree.Leaf("l"), tree.New("r", tree.Leaf("l"), tree.Leaf("l")))
	if p.Accepts(bad) {
		t.Errorf("the nested r-node has no applicable transition and must be rejected")
	}
}

func TestEmptinessPTA(t *testing.T) {
	p := stemCounter()
	if p.isEmpty() {
		t.Errorf("the stem-counter language is not empty")
	}
	if p.summaryCount() == 0 {
		t.Errorf("saturation should derive summaries")
	}
	// An automaton whose only leaf transition leaves a non-poppable stack.
	q := New(cde, 3)
	q.AddStart(0)
	q.AddPush(0, 1, "X")
	q.AddLeaf(1, "e", 2)
	if !q.isEmpty() {
		t.Errorf("no pop transitions: every leaf keeps X and ⊥, so the language is empty")
	}
	q.AddPop(2, "X", 2)
	q.AddPopBottom(2, 2)
	if q.isEmpty() {
		t.Errorf("after adding pops the single-leaf tree e is accepted")
	}
}

func TestAccessorsAndPanics(t *testing.T) {
	p := stemCounter()
	if p.numStates() != 5 {
		t.Errorf("accessors broken")
	}
	defer func() {
		if recover() == nil {
			t.Errorf("pushing ⊥ should panic")
		}
	}()
	p.AddPush(0, 0, bottom)
}
