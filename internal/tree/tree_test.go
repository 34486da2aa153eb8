package tree

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/nestedword"
)

// figure1Tree is the tree a(a(),b()) of Figure 1 (the tree word n3).
func figure1Tree() *Tree { return New("a", Leaf("a"), Leaf("b")) }

func TestBasicsEmptyAndLeaf(t *testing.T) {
	var empty *Tree
	if !empty.isEmpty() || empty.Size() != 0 || empty.height() != 0 || empty.arity() != 0 {
		t.Errorf("empty tree invariants broken")
	}
	if empty.String() != "ε" {
		t.Errorf("empty tree String = %q", empty.String())
	}
	l := Leaf("a")
	if l.isEmpty() || !l.isLeaf() || l.Size() != 1 || l.height() != 1 {
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
	if tr.Size() != 3 || tr.height() != 2 || tr.arity() != 2 {
		t.Errorf("size/height/arity = %d/%d/%d, want 3/2/2", tr.Size(), tr.height(), tr.arity())
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

func TestForestEncoding(t *testing.T) {
	forest := []*Tree{Leaf("a"), figure1Tree(), Leaf("b")}
	nw := forestToNestedWord(forest...)
	if !nw.IsHedgeWord() {
		t.Fatalf("forest encoding should be a hedge word: %v", nw)
	}
	back, err := fromNestedWordForest(nw)
	if err != nil {
		t.Fatalf("FromNestedWordForest: %v", err)
	}
	if len(back) != 3 {
		t.Fatalf("forest round trip length = %d, want 3", len(back))
	}
	for i := range forest {
		if !forest[i].Equal(back[i]) {
			t.Errorf("forest tree %d differs: %v vs %v", i, forest[i], back[i])
		}
	}
	if _, err := fromNestedWordForest(nestedword.MustParse("a")); err == nil {
		t.Errorf("non-hedge word should be rejected")
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
	if fb.Size() != 7 || fb.height() != 3 {
		t.Errorf("FullBinary(3): size=%d height=%d, want 7,3", fb.Size(), fb.height())
	}
	if FullBinary("b", 0) != nil {
		t.Errorf("FullBinary(0) should be empty")
	}
	st := Stem("a", 4, Leaf("z"))
	if st.Size() != 5 || st.height() != 5 || !st.isUnary() {
		t.Errorf("Stem: size=%d height=%d unary=%v", st.Size(), st.height(), st.isUnary())
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

func TestPreAndPostOrder(t *testing.T) {
	tr := New("a", New("b", Leaf("c")), Leaf("d"))
	if got, want := tr.preOrder(), []string{"a", "b", "c", "d"}; !reflect.DeepEqual(got, want) {
		t.Errorf("PreOrder = %v, want %v", got, want)
	}
	if got, want := tr.postOrder(), []string{"c", "b", "d", "a"}; !reflect.DeepEqual(got, want) {
		t.Errorf("PostOrder = %v, want %v", got, want)
	}
}

func TestLabelsAndCount(t *testing.T) {
	tr := New("a", Leaf("b"), New("a", Leaf("c")))
	if got, want := tr.labels(), []string{"a", "b", "c"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Labels = %v, want %v", got, want)
	}
	if tr.CountLabel("a") != 2 || tr.CountLabel("z") != 0 {
		t.Errorf("CountLabel broken")
	}
}

func TestCloneIndependence(t *testing.T) {
	tr := figure1Tree()
	cl := tr.clone()
	cl.Children[0].Label = "mutated"
	if tr.Children[0].Label != "a" {
		t.Errorf("Clone must deep-copy")
	}
	var empty *Tree
	if empty.clone() != nil {
		t.Errorf("Clone of empty tree should be nil")
	}
}

func TestInsertBelowMatchesNestedWordInsert(t *testing.T) {
	// Inserting tree word t_nw(ins) after every sym-labelled *return* of
	// t_nw(host) appends ins as a last child below every sym node.  We check
	// the correspondence by comparing against InsertBelow composed with the
	// tree encoding, filtering Insert to returns by using a host where sym
	// labels only one node.
	host := New("r", Leaf("x"), Leaf("y"))
	ins := Leaf("z")
	got := insertBelow(host, "x", ins)
	want := New("r", New("x", Leaf("z")), Leaf("y"))
	if !got.Equal(want) {
		t.Errorf("InsertBelow = %v, want %v", got, want)
	}
	if insertBelow(nil, "x", ins) != nil {
		t.Errorf("InsertBelow on empty tree should be empty")
	}
}

func TestDeleteAndSubstituteLabelled(t *testing.T) {
	host := New("a", New("b", Leaf("c")), Leaf("d"))
	if got, want := deleteLabelled(host, "b"), New("a", Leaf("d")); !got.Equal(want) {
		t.Errorf("DeleteLabelled = %v, want %v", got, want)
	}
	if deleteLabelled(host, "a") != nil {
		t.Errorf("deleting the root should yield the empty tree")
	}
	repl := Leaf("z")
	if got, want := substituteLabelled(host, "b", repl), New("a", Leaf("z"), Leaf("d")); !got.Equal(want) {
		t.Errorf("SubstituteLabelled = %v, want %v", got, want)
	}
	if got := substituteLabelled(host, "a", repl); !got.Equal(repl) {
		t.Errorf("substituting the root should yield the replacement")
	}
}

func TestFirstChildNextSiblingRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 100; i++ {
		tr := randomTree(rng, 3, 3)
		enc := firstChildNextSibling(tr)
		if enc.size() != tr.Size() {
			t.Errorf("FCNS must preserve node count: %d vs %d", enc.size(), tr.Size())
		}
		back := fromFirstChildNextSibling(enc)
		if !tr.Equal(back) {
			t.Errorf("FCNS round trip failed for %v: got %v", tr, back)
		}
	}
	if firstChildNextSibling(nil) != nil {
		t.Errorf("FCNS of empty tree should be nil")
	}
}

func TestFCNSForest(t *testing.T) {
	forest := []*Tree{Leaf("a"), New("b", Leaf("c"))}
	enc := fcnsForest(forest)
	back := fromFCNSForest(enc)
	if len(back) != 2 || !back[0].Equal(forest[0]) || !back[1].Equal(forest[1]) {
		t.Errorf("FCNS forest round trip failed: %v", back)
	}
	if enc.height() < 1 || enc.equal(nil) {
		t.Errorf("binary helpers broken")
	}
}

func TestBinaryAndUnaryPredicates(t *testing.T) {
	if !FullBinary("a", 3).isBinary() {
		t.Errorf("full binary tree should be binary")
	}
	wide := New("a", Leaf("b"), Leaf("c"), Leaf("d"))
	if wide.isBinary() {
		t.Errorf("3-ary node is not binary")
	}
	if !path("a", "b").isUnary() || wide.isUnary() {
		t.Errorf("unary predicate broken")
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
		return nw.Len() == 2*tr.Size() && nw.Depth() == tr.height()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickFCNSBijection(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := randomTree(rng, 4, 3)
		return tr.Equal(fromFirstChildNextSibling(firstChildNextSibling(tr)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
