package nestedword

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConcat(t *testing.T) {
	a := MustParse("<a b")
	b := MustParse("c a>")
	c := Concat(a, b)
	want := MustParse("<a b c a>")
	if !c.Equal(want) {
		t.Errorf("Concat = %v, want %v", c, want)
	}
	// The pending call of a is matched with the pending return of b in the
	// concatenation (Section 2.4).
	if !c.IsWellMatched() {
		t.Errorf("concatenation should have matched the pending edges")
	}
	if Concat().Len() != 0 {
		t.Errorf("Concat() should be empty")
	}
	if !Concat(a).Equal(a) {
		t.Errorf("Concat of a single word should equal that word")
	}
}

func TestSubwordPendingEdges(t *testing.T) {
	n := MustParse("<a b c a> d")
	// Subword containing only the call: the edge becomes a pending call.
	pre := n.subword(0, 1)
	if pre.IsWellMatched() {
		t.Errorf("prefix cutting an edge should have a pending call")
	}
	if len(pre.PendingCalls()) != 1 {
		t.Errorf("prefix should have exactly one pending call, got %v", pre.PendingCalls())
	}
	// Subword containing only the return: the edge becomes a pending return.
	suf := n.subword(2, 4)
	if len(suf.PendingReturns()) != 1 {
		t.Errorf("suffix should have exactly one pending return, got %v", suf.PendingReturns())
	}
}

func TestSubwordOutOfRange(t *testing.T) {
	n := MustParse("a b c")
	for _, c := range []struct{ i, j int }{{-1, 1}, {0, 3}, {2, 1}, {5, 9}} {
		if got := n.subword(c.i, c.j); got.Len() != 0 {
			t.Errorf("Subword(%d,%d) = %v, want empty", c.i, c.j, got)
		}
	}
}

func TestPrefixSuffixConcatenation(t *testing.T) {
	// Section 2.4: concatenating the prefix n[1,i] and the suffix n[i+1,ℓ]
	// gives back n.
	n := figure1N1()
	for i := -1; i < n.Len(); i++ {
		back := Concat(n.Prefix(i), n.suffix(i+1))
		if !back.Equal(n) {
			t.Errorf("prefix(%d) + suffix(%d) != n", i, i+1)
		}
	}
}

func TestQuickPrefixSuffixConcatenation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := randomNested(rng, 40)
		if n.Len() == 0 {
			return true
		}
		i := rng.Intn(n.Len())
		return Concat(n.Prefix(i), n.suffix(i+1)).Equal(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestReverse(t *testing.T) {
	n := MustParse("<a b a>")
	r := n.reverse()
	want := MustParse("<a b a>")
	if !r.Equal(want) {
		t.Errorf("Reverse(%v) = %v, want %v", n, r, want)
	}
	n2 := MustParse("<a b c> d")
	r2 := n2.reverse()
	want2 := MustParse("d <c b a>")
	if !r2.Equal(want2) {
		t.Errorf("Reverse(%v) = %v, want %v", n2, r2, want2)
	}
}

func TestQuickReverseInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := randomNested(rng, 50)
		return n.reverse().reverse().Equal(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickReversePreservesDepthAndMatching(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := randomNested(rng, 50)
		r := n.reverse()
		if n.Len() != r.Len() {
			return false
		}
		// Well-matchedness is preserved by reversal.
		return n.IsWellMatched() == r.IsWellMatched()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestInsert(t *testing.T) {
	n := MustParse("a b a")
	ins := MustParse("<c c>")
	got := Insert(n, "a", ins)
	want := MustParse("a <c c> b a <c c>")
	if !got.Equal(want) {
		t.Errorf("Insert = %v, want %v", got, want)
	}
	// Inserting after a symbol that does not occur returns the word itself.
	same := Insert(n, "z", ins)
	if !same.Equal(n) {
		t.Errorf("Insert with absent symbol = %v, want %v", same, n)
	}
	// Inserting into the empty word returns the empty word.
	if Insert(Empty(), "a", ins).Len() != 0 {
		t.Errorf("Insert into empty word should stay empty")
	}
}

func TestInsertTreeInsertion(t *testing.T) {
	// Insertion of a tree word into another tree word is tree insertion
	// (Section 2.4): the result is still well matched.
	host := MustParse("<a <b b> a>")
	ins := MustParse("<c c>")
	got := Insert(host, "b", ins)
	if !got.IsWellMatched() {
		t.Errorf("tree insertion should stay well matched: %v", got)
	}
	want := MustParse("<a <b <c c> b> <c c> a>")
	if !got.Equal(want) {
		t.Errorf("Insert = %v, want %v", got, want)
	}
}

func TestInsertAt(t *testing.T) {
	n := MustParse("a b")
	ins := MustParse("x")
	if got, want := insertAt(n, -1, ins), MustParse("x a b"); !got.Equal(want) {
		t.Errorf("InsertAt(-1) = %v, want %v", got, want)
	}
	if got, want := insertAt(n, 0, ins), MustParse("a x b"); !got.Equal(want) {
		t.Errorf("InsertAt(0) = %v, want %v", got, want)
	}
	if got, want := insertAt(n, 1, ins), MustParse("a b x"); !got.Equal(want) {
		t.Errorf("InsertAt(1) = %v, want %v", got, want)
	}
	if got := insertAt(n, 5, ins); !got.Equal(n) {
		t.Errorf("InsertAt out of range should return an unchanged copy")
	}
}

func TestDeleteSubtree(t *testing.T) {
	n := MustParse("<a <b c b> d a>")
	got := deleteSubtree(n, 1)
	want := MustParse("<a d a>")
	if !got.Equal(want) {
		t.Errorf("DeleteSubtree = %v, want %v", got, want)
	}
	// Deleting at a non-call or pending call is a no-op copy.
	if got := deleteSubtree(n, 2); !got.Equal(n) {
		t.Errorf("DeleteSubtree at internal should be a no-op")
	}
	pend := MustParse("<a b")
	if got := deleteSubtree(pend, 0); !got.Equal(pend) {
		t.Errorf("DeleteSubtree at pending call should be a no-op")
	}
}

func TestSubstituteSubtree(t *testing.T) {
	n := MustParse("<a <b c b> d a>")
	repl := MustParse("<e e>")
	got := substituteSubtree(n, 1, repl)
	want := MustParse("<a <e e> d a>")
	if !got.Equal(want) {
		t.Errorf("SubstituteSubtree = %v, want %v", got, want)
	}
	if got := substituteSubtree(n, 2, repl); !got.Equal(n) {
		t.Errorf("SubstituteSubtree at internal should be a no-op")
	}
}

func TestRootedSubword(t *testing.T) {
	n := MustParse("<a <b c b> d a>")
	sub, ok := n.rootedSubword(1)
	if !ok {
		t.Fatalf("RootedSubword(1) should succeed")
	}
	if want := MustParse("<b c b>"); !sub.Equal(want) {
		t.Errorf("RootedSubword(1) = %v, want %v", sub, want)
	}
	if _, ok := n.rootedSubword(2); ok {
		t.Errorf("RootedSubword at internal should fail")
	}
}

func TestRepeat(t *testing.T) {
	n := MustParse("<a a>")
	if got, want := repeat(n, 3), MustParse("<a a> <a a> <a a>"); !got.Equal(want) {
		t.Errorf("Repeat = %v, want %v", got, want)
	}
	if repeat(n, 0).Len() != 0 {
		t.Errorf("Repeat(n, 0) should be empty")
	}
	if repeat(n, -1).Len() != 0 {
		t.Errorf("Repeat(n, -1) should be empty")
	}
}

func TestQuickConcatLengthAdds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomNested(rng, 30)
		b := randomNested(rng, 30)
		return Concat(a, b).Len() == a.Len()+b.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickConcatAssociative(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomNested(rng, 20)
		b := randomNested(rng, 20)
		c := randomNested(rng, 20)
		return Concat(Concat(a, b), c).Equal(Concat(a, Concat(b, c)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickReverseAntiHomomorphism(t *testing.T) {
	// reverse(ab) = reverse(b) reverse(a)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomNested(rng, 25)
		b := randomNested(rng, 25)
		return Concat(a, b).reverse().Equal(Concat(b.reverse(), a.reverse()))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
