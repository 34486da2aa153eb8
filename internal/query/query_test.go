package query

import (
	"math/rand"
	"testing"

	"repro/internal/alphabet"
	"repro/internal/generator"
	"repro/internal/nestedword"
)

var docAlpha = alphabet.New("lib", "book", "title", "t1", "t2", "x")

func doc(s string) *nestedword.NestedWord { return nestedword.MustParse(s) }

func TestLinearOrderQuery(t *testing.T) {
	q := LinearOrder(docAlpha, "t1", "t2")
	cases := map[string]bool{
		"<lib <book t1 book> <book t2 book> lib>":               true,
		"<lib <book t2 book> <book t1 book> lib>":               false,
		"<lib <book t1 t2 book> lib>":                           true,
		"<lib <book <title t1 title> book> <book t2 book> lib>": true,
		"<lib x lib>": false,
		"t1 t2":       true,
		"t2 t1":       false,
	}
	for in, want := range cases {
		if got := q.Accepts(doc(in)); got != want {
			t.Errorf("LinearOrder(%q) = %v, want %v", in, got, want)
		}
	}
}

func TestWellFormed(t *testing.T) {
	q := WellFormed(docAlpha)
	cases := map[string]bool{
		"<lib <book book> lib>": true,
		"<lib <book lib> book>": false,
		"<lib <book book>":      false,
		"book> <lib lib>":       false,
		"x t1 t2":               true,
		"":                      true,
	}
	for in, want := range cases {
		if got := q.Accepts(doc(in)); got != want {
			t.Errorf("WellFormed(%q) = %v, want %v", in, got, want)
		}
	}
}

func TestWellFormedAgainstPredicate(t *testing.T) {
	q := WellFormed(alphabet.New("a", "b"))
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 300; i++ {
		n := generator.RandomNestedWord(rng, 14, []string{"a", "b"})
		want := n.IsWellMatched()
		if want {
			for j := 0; j < n.Len(); j++ {
				if n.KindAt(j) == nestedword.Call {
					r, _ := n.ReturnSuccessor(j)
					if n.SymbolAt(r) != n.SymbolAt(j) {
						want = false
						break
					}
				}
			}
		}
		if got := q.Accepts(n); got != want {
			t.Fatalf("WellFormed(%v) = %v, want %v", n, got, want)
		}
	}
}

func TestPathQuery(t *testing.T) {
	q := PathQuery(docAlpha, "lib", "book", "title")
	cases := map[string]bool{
		"<lib <book <title t1 title> book> lib>":          true,
		"<lib <book t1 book> lib>":                        false,
		"<lib <title <book book> title> lib>":             false,
		"<lib <x <book <x <title title> x> book> x> lib>": true,
		"<book <title title> book>":                       false,
		"<lib <book book> <book <title title> book> lib>": true,
	}
	for in, want := range cases {
		if got := q.Accepts(doc(in)); got != want {
			t.Errorf("PathQuery(%q) = %v, want %v", in, got, want)
		}
	}
}

func TestPathQuerySiblingScopes(t *testing.T) {
	// A closed element's contribution to the chain must not leak to its
	// siblings: lib > book closes before title opens, so lib//book//title
	// must NOT match.
	q := PathQuery(docAlpha, "lib", "book", "title")
	if q.Accepts(doc("<lib <book book> <title title> lib>")) {
		t.Errorf("the chain must be nested, not merely in document order")
	}
}

func TestContainsLabelAndCombinators(t *testing.T) {
	hasT1 := ContainsLabel(docAlpha, "t1")
	hasT2 := ContainsLabel(docAlpha, "t2")
	both := And(hasT1, hasT2)
	either := Or(hasT1, hasT2)
	neither := Not(either)
	cases := []struct {
		in                             string
		wantBoth, wantEither, wantNone bool
	}{
		{"<lib t1 t2 lib>", true, true, false},
		{"<lib t1 lib>", false, true, false},
		{"<lib x lib>", false, false, true},
	}
	for _, c := range cases {
		d := doc(c.in)
		if both.Accepts(d) != c.wantBoth || either.Accepts(d) != c.wantEither || neither.Accepts(d) != c.wantNone {
			t.Errorf("combinators wrong on %q", c.in)
		}
	}
	if d := doc("<lib t1 lib>"); !hasT1.Accepts(d) || hasT2.Accepts(d) {
		t.Errorf("ContainsLabel on <lib t1 lib>: t1 %v, t2 %v, want true false", hasT1.Accepts(d), hasT2.Accepts(d))
	}
}
