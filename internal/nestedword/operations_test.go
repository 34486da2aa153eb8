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
		back := Concat(n.Prefix(i), n.subword(i+1, n.Len()-1))
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
		return Concat(n.Prefix(i), n.subword(i+1, n.Len()-1)).Equal(n)
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
