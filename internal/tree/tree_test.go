package tree

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/nestedword"
)

// figure1Tree is the tree a(a(),b()) of Figure 1 (the tree word n3).
func figure1Tree() *Tree { return New("a", Leaf("a"), Leaf("b")) }

// path builds the unary tree a1(a2(...(aℓ())...)), whose tree word is
// nestedword.Path(a1, ..., aℓ) (Section 2.2); path() is the empty tree.
func path(symbols ...string) *Tree {
	var t *Tree
	for i := len(symbols) - 1; i >= 0; i-- {
		t = New(symbols[i], t)
	}
	return t
}

// height is the tree's height: 0 for the empty tree, 1 for a leaf.
func height(t *Tree) int {
	if t == nil {
		return 0
	}
	best := 0
	for _, c := range t.Children {
		best = max(best, height(c))
	}
	return best + 1
}

func TestBasicsEmptyAndLeaf(t *testing.T) {
	var empty *Tree
	if empty.Size() != 0 || height(empty) != 0 {
		t.Errorf("empty tree invariants broken")
	}
	if empty.String() != "ε" {
		t.Errorf("empty tree String = %q", empty.String())
	}
	l := Leaf("a")
	if l == nil || len(l.Children) != 0 || l.Size() != 1 || height(l) != 1 {
		t.Errorf("leaf invariants broken")
	}
}

func TestNewDropsNilChildren(t *testing.T) {
	tr := New("a", nil, Leaf("b"), nil)
	if len(tr.Children) != 1 {
		t.Errorf("nil children should be dropped: %v", tr)
	}
}

func TestFigure1Tree(t *testing.T) {
	tr := figure1Tree()
	if tr.String() != "a(a(),b())" {
		t.Errorf("String = %q, want a(a(),b())", tr.String())
	}
	if tr.Size() != 3 || height(tr) != 2 {
		t.Errorf("size/height = %d/%d, want 3/2", tr.Size(), height(tr))
	}
	nw := ToNestedWord(tr)
	want := nestedword.MustParse("<a <a a> <b b> a>")
	if !nw.Equal(want) {
		t.Errorf("t_nw(a(a(),b())) = %v, want %v", nw, want)
	}
}

func TestEncodingRoundTrip(t *testing.T) {
	trees := []*Tree{
		nil,
		Leaf("a"),
		figure1Tree(),
		New("a", New("b", Leaf("c"), Leaf("d")), Leaf("e"), New("f", Leaf("g"))),
		path("a", "b", "c", "d"),
		FullBinary("x", 4),
	}
	for _, tr := range trees {
		nw := ToNestedWord(tr)
		back, err := FromNestedWord(nw)
		if err != nil {
			t.Fatalf("FromNestedWord(%v): %v", nw, err)
		}
		if !tr.Equal(back) {
			t.Errorf("round trip failed: %v -> %v -> %v", tr, nw, back)
		}
	}
}

func TestFromNestedWordRejectsNonTreeWords(t *testing.T) {
	for _, s := range []string{"a", "<a a> <b b>", "<a b>", "<a b a>", "<a <b"} {
		if _, err := FromNestedWord(nestedword.MustParse(s)); err == nil {
			t.Errorf("FromNestedWord(%q) should fail", s)
		}
	}
}

func TestPathEncodingAgreement(t *testing.T) {
	// ToNestedWord(Path(w)) must agree with nestedword.Path(w) (Section 2.2).
	w := []string{"a", "b", "a", "c"}
	if got, want := ToNestedWord(path(w...)), nestedword.Path(w...); !got.Equal(want) {
		t.Errorf("path encodings disagree: %v vs %v", got, want)
	}
	if path() != nil {
		t.Errorf("Path() should be the empty tree")
	}
}

func TestFullBinaryAndStem(t *testing.T) {
	fb := FullBinary("b", 3)
	if fb.Size() != 7 || height(fb) != 3 {
		t.Errorf("FullBinary(3): size=%d height=%d, want 7,3", fb.Size(), height(fb))
	}
	if FullBinary("b", 0) != nil {
		t.Errorf("FullBinary(0) should be empty")
	}
	st := Stem("a", 4, Leaf("z"))
	if st.Size() != 5 || height(st) != 5 {
		t.Errorf("Stem: size=%d height=%d, want a path of 5", st.Size(), height(st))
	}
	if Stem("a", 3, nil).Size() != 3 {
		t.Errorf("Stem with nil subtree should be a bare path")
	}
}

func TestParseTerm(t *testing.T) {
	cases := []struct {
		in   string
		want *Tree
	}{
		{"", nil},
		{"ε", nil},
		{"a", Leaf("a")},
		{"a()", Leaf("a")},
		{"a(a(),b())", figure1Tree()},
		{"a(b(c),d)", New("a", New("b", Leaf("c")), Leaf("d"))},
		{" a( b() , c() ) ", New("a", Leaf("b"), Leaf("c"))},
	}
	for _, c := range cases {
		got, err := ParseTerm(c.in)
		if err != nil {
			t.Errorf("ParseTerm(%q): %v", c.in, err)
			continue
		}
		if !got.Equal(c.want) {
			t.Errorf("ParseTerm(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestParseTermErrors(t *testing.T) {
	for _, bad := range []string{"a(", "a(b", "a)b", "a(b(),", "(a)", "a(b())c"} {
		if _, err := ParseTerm(bad); err == nil {
			t.Errorf("ParseTerm(%q) should fail", bad)
		}
	}
}

func TestParseTermStringRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		tr := randomTree(rng, 3, 3)
		back, err := ParseTerm(tr.String())
		if err != nil {
			t.Fatalf("ParseTerm(%q): %v", tr.String(), err)
		}
		if !tr.Equal(back) {
			t.Errorf("term round trip failed for %v", tr)
		}
	}
}

func TestLabelsAndCount(t *testing.T) {
	tr := New("a", Leaf("b"), New("a", Leaf("c")))
	if tr.CountLabel("a") != 2 || tr.CountLabel("z") != 0 {
		t.Errorf("CountLabel broken")
	}
}

// randomTree builds a random tree with the given maximum depth and maximum
// branching factor over labels {a,b,c}.  It may return nil (the empty tree).
func randomTree(rng *rand.Rand, maxDepth, maxBranch int) *Tree {
	if maxDepth == 0 || rng.Intn(4) == 0 {
		if rng.Intn(8) == 0 {
			return nil
		}
		return Leaf([]string{"a", "b", "c"}[rng.Intn(3)])
	}
	n := rng.Intn(maxBranch + 1)
	children := make([]*Tree, 0, n)
	for i := 0; i < n; i++ {
		children = append(children, randomTree(rng, maxDepth-1, maxBranch))
	}
	return New([]string{"a", "b", "c"}[rng.Intn(3)], children...)
}

func TestQuickEncodingBijection(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := randomTree(rng, 4, 3)
		nw := ToNestedWord(tr)
		if tr != nil && !nw.IsTreeWord() {
			return false
		}
		back, err := FromNestedWord(nw)
		return err == nil && tr.Equal(back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickEncodingSizeAndDepth(t *testing.T) {
	// |t_nw(t)| = 2·size(t) and depth(t_nw(t)) = height(t).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := randomTree(rng, 4, 3)
		nw := ToNestedWord(tr)
		return nw.Len() == 2*tr.Size() && nw.Depth() == height(tr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
