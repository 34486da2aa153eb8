package nestedword

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// figure1N1 is the nested word n1 of Figure 1:
// a b <a a <b a b> a> <a b a a>
// (length 12, depth 2, well-matched).
func figure1N1() *NestedWord {
	return MustParse("a b <a a <b a b> a> <a b a a>")
}

// figure1N2 is the nested word n2 of Figure 1:
// a a> <b a a> <a <a  (one unmatched return, two unmatched calls).
func figure1N2() *NestedWord {
	return MustParse("a a> <b a a> <a <a")
}

// figure1N3 is the nested word n3 of Figure 1:
// <a <a a> <b b> a>  — the tree word of the tree a(a(), b()).
func figure1N3() *NestedWord {
	return MustParse("<a <a a> <b b> a>")
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{Internal: "internal", Call: "call", Return: "return", Kind(9): "Kind(9)"}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestEmptyWord(t *testing.T) {
	e := Empty()
	if e.Len() != 0 {
		t.Fatalf("Empty().Len() = %d, want 0", e.Len())
	}
	if e.Depth() != 0 {
		t.Errorf("Empty().Depth() = %d, want 0", e.Depth())
	}
	if !e.IsWellMatched() {
		t.Errorf("empty word should be well-matched")
	}
	if e.IsRooted() {
		t.Errorf("empty word should not be rooted")
	}
	if e.String() != "ε" {
		t.Errorf("Empty().String() = %q, want ε", e.String())
	}
}

func TestFigure1N1Properties(t *testing.T) {
	n1 := figure1N1()
	if n1.Len() != 12 {
		t.Fatalf("n1 length = %d, want 12", n1.Len())
	}
	if n1.Depth() != 2 {
		t.Errorf("n1 depth = %d, want 2", n1.Depth())
	}
	if !n1.IsWellMatched() {
		t.Errorf("n1 should be well-matched")
	}
	if n1.IsRooted() {
		t.Errorf("n1 should not be rooted")
	}
	if n1.IsTreeWord() {
		t.Errorf("n1 should not be a tree word")
	}
	calls, internals, returns := n1.Counts()
	if calls != 3 || returns != 3 || internals != 6 {
		t.Errorf("n1 counts = (%d,%d,%d), want (3,6,3)", calls, internals, returns)
	}
}

func TestFigure1N2Pending(t *testing.T) {
	n2 := figure1N2()
	if n2.IsWellMatched() {
		t.Errorf("n2 should not be well-matched")
	}
	if got := n2.PendingReturns(); len(got) != 1 || got[0] != 1 {
		t.Errorf("n2 pending returns = %v, want [1]", got)
	}
	pc := n2.PendingCalls()
	if len(pc) != 2 {
		t.Fatalf("n2 pending calls = %v, want two entries", pc)
	}
	// <b at position 2 is matched with a> at position 4; the two pending
	// calls are the trailing <a <a at positions 5 and 6.
	if pc[0] != 5 || pc[1] != 6 {
		t.Errorf("n2 pending calls = %v, want [5 6]", pc)
	}
	if j, ok := n2.ReturnSuccessor(2); !ok || j != 4 {
		t.Errorf("ReturnSuccessor(2) = (%d,%v), want (4,true)", j, ok)
	}
}

func TestFigure1N3TreeWord(t *testing.T) {
	n3 := figure1N3()
	if !n3.IsRooted() {
		t.Errorf("n3 should be rooted")
	}
	if !n3.IsWellMatched() {
		t.Errorf("n3 should be well-matched")
	}
	if !n3.IsTreeWord() {
		t.Errorf("n3 should be a tree word")
	}
	if n3.Depth() != 2 {
		t.Errorf("n3 depth = %d, want 2", n3.Depth())
	}
}

func TestMatchingRelationBasics(t *testing.T) {
	n := MustParse("<a b c> d")
	if j, ok := n.ReturnSuccessor(0); !ok || j != 2 {
		t.Errorf("ReturnSuccessor(0) = (%d,%v), want (2,true)", j, ok)
	}
	if _, ok := n.ReturnSuccessor(1); ok {
		t.Errorf("ReturnSuccessor of an internal should report ok=false")
	}
	if _, ok := n.ReturnSuccessor(-1); ok {
		t.Errorf("ReturnSuccessor out of range should report ok=false")
	}
	if got := n.PendingReturns(); len(got) != 0 {
		t.Errorf("PendingReturns() = %v, want none", got)
	}
}

func TestMatchingWithPendingEdges(t *testing.T) {
	n := MustParse("a> <b")
	if got := n.PendingReturns(); !reflect.DeepEqual(got, []int{0}) {
		t.Errorf("PendingReturns() = %v, want [0]", got)
	}
	if j, ok := n.ReturnSuccessor(1); !ok || j != Pending {
		t.Errorf("ReturnSuccessor(1) = (%d,%v), want (Pending,true)", j, ok)
	}
}

func TestNoCrossingEdges(t *testing.T) {
	// Property: the matching relation computed by the stack scan never
	// produces crossing edges (condition 3 of the definition).
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := randomNested(rng, 40)
		matched := matchedEdges(n)
		for _, e1 := range matched {
			for _, e2 := range matched {
				if e1[0] < e2[0] && e2[0] <= e1[1] && e1[1] < e2[1] {
					t.Fatalf("crossing edges %v and %v in %v", e1, e2, n)
				}
			}
		}
	}
}

func TestDepth(t *testing.T) {
	cases := []struct {
		in    string
		depth int
	}{
		{"a b c", 0},
		{"<a a>", 1},
		{"<a <b b> a>", 2},
		{"<a a> <b b>", 1},
		{"<a <b <c c> b> a>", 3},
		{"<a <b", 2},
		{"a> a>", 0},
	}
	for _, c := range cases {
		n := MustParse(c.in)
		if got := n.Depth(); got != c.depth {
			t.Errorf("Depth(%q) = %d, want %d", c.in, got, c.depth)
		}
	}
}

func TestAlphabet(t *testing.T) {
	n := MustParse("<b a <c c> b>")
	got := n.Alphabet()
	want := []string{"a", "b", "c"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Alphabet() = %v, want %v", got, want)
	}
}

func TestEqual(t *testing.T) {
	a := MustParse("<a b a>")
	b := MustParse("<a b a>")
	c := MustParse("<a b b>")
	d := MustParse("<a b")
	if !a.Equal(b) {
		t.Errorf("identical words should be Equal")
	}
	if a.Equal(c) || a.Equal(d) {
		t.Errorf("different words should not be Equal")
	}
}

func TestStringRoundTrip(t *testing.T) {
	for _, s := range []string{"a b <a a <b a b> a> <a b a a>", "a a> <b a a> <a <a", "<a <a a> <b b> a>"} {
		n := MustParse(s)
		back := MustParse(n.String())
		if !n.Equal(back) {
			t.Errorf("String round trip failed for %q: got %q", s, n.String())
		}
	}
}

func TestPositionsCopy(t *testing.T) {
	n := MustParse("<a a>")
	ps := n.Positions()
	ps[0].Symbol = "mutated"
	if n.SymbolAt(0) != "a" {
		t.Errorf("Positions() must return a copy; original was mutated")
	}
}

// randomNested builds a random nested word of length up to maxLen over the
// alphabet {a, b, c}.
func randomNested(rng *rand.Rand, maxLen int) *NestedWord {
	l := rng.Intn(maxLen + 1)
	syms := []string{"a", "b", "c"}
	kinds := []Kind{Internal, Call, Return}
	ps := make([]Position, l)
	for i := range ps {
		ps[i] = Position{Symbol: syms[rng.Intn(len(syms))], Kind: kinds[rng.Intn(len(kinds))]}
	}
	return New(ps...)
}

// matchedEdges lists the matched edges i ; j of n as {i, j} pairs, read
// through ReturnSuccessor.
func matchedEdges(n *NestedWord) [][2]int {
	var out [][2]int
	for i := 0; i < n.Len(); i++ {
		if j, ok := n.ReturnSuccessor(i); ok && j != Pending {
			out = append(out, [2]int{i, j})
		}
	}
	return out
}

func TestQuickPendingCountsConsistent(t *testing.T) {
	// Property: #pending calls = #calls - #matched edges and symmetrically
	// for returns.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := randomNested(rng, 60)
		calls, _, returns := n.Counts()
		matched := len(matchedEdges(n))
		return len(n.PendingCalls()) == calls-matched && len(n.PendingReturns()) == returns-matched
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickWellMatchedMeansNoPending(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := randomNested(rng, 60)
		wm := n.IsWellMatched()
		noPending := len(n.PendingCalls()) == 0 && len(n.PendingReturns()) == 0
		return wm == noPending
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickDepthAtMostCalls(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := randomNested(rng, 60)
		calls, _, _ := n.Counts()
		return n.Depth() <= calls
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
