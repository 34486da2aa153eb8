// Command quickstart is the smallest end-to-end tour of the library: it
// builds the three nested words of Figure 1 of "Marrying Words and Trees",
// converts a tree to its tree word and back, builds a small deterministic
// nested word automaton, and runs it.
package main

import (
	"fmt"

	"repro/internal/alphabet"
	"repro/internal/nestedword"
	"repro/internal/nwa"
	"repro/internal/query"
	"repro/internal/tree"
)

func main() {
	// The three nested words of Figure 1.
	n1 := nestedword.MustParse("a b <a a <b a b> a> <a b a a>")
	n2 := nestedword.MustParse("a a> <b a a> <a <a")
	n3 := nestedword.MustParse("<a <a a> <b b> a>")
	for i, n := range []*nestedword.NestedWord{n1, n2, n3} {
		fmt.Printf("n%d = %v  (length %d, depth %d, well-matched %v, tree word %v)\n",
			i+1, n, n.Len(), n.Depth(), n.IsWellMatched(), n.IsTreeWord())
	}

	// Trees are nested words: a(a(),b()) encodes to n3 and decodes back.
	t := tree.New("a", tree.Leaf("a"), tree.Leaf("b"))
	encoded := tree.ToNestedWord(t)
	decoded, _ := tree.FromNestedWord(encoded)
	fmt.Printf("\nt_nw(%v) = %v, nw_t back = %v\n", t, encoded, decoded)

	// Word and tree operations on nested words.
	fmt.Printf("path(a,b,a)      = %v\n", nestedword.Path("a", "b", "a"))
	fmt.Printf("concat(n2, n2)   = %v\n", nestedword.Concat(n2, n2))
	fmt.Printf("insert ⟨b b⟩ after every a of n3 = %v\n",
		nestedword.Insert(n3, "a", nestedword.MustParse("<b b>")))

	// A deterministic NWA over {a, b} accepting the well-matched words whose
	// matched calls and returns carry the same symbol: the call pushes its
	// symbol along the hierarchical edge, the return checks it.
	alpha := alphabet.New("a", "b")
	b := nwa.NewDNWABuilder(alpha, 6)
	const topOK, insideOK, pushTopA, pushTopB, pushInA, pushInB = 0, 1, 2, 3, 4, 5
	b.SetStart(topOK).SetAccept(topOK)
	for _, sym := range []string{"a", "b"} {
		b.Internal(topOK, sym, topOK)
		b.Internal(insideOK, sym, insideOK)
	}
	b.Call(topOK, "a", insideOK, pushTopA).Call(topOK, "b", insideOK, pushTopB)
	b.Call(insideOK, "a", insideOK, pushInA).Call(insideOK, "b", insideOK, pushInB)
	b.Return(insideOK, pushTopA, "a", topOK).Return(insideOK, pushTopB, "b", topOK)
	b.Return(insideOK, pushInA, "a", insideOK).Return(insideOK, pushInB, "b", insideOK)
	matched := b.Build()

	fmt.Println("\nmatched-symbols automaton verdicts:")
	for _, in := range []string{"<a <b b> a>", "<a b>", "a b a", "<a <b a> b>", "<a"} {
		n := nestedword.MustParse(in)
		fmt.Printf("  %-14s -> %v\n", in, matched.Accepts(n))
	}

	// Boolean combination and a decision procedure (Section 3.2).
	wellFormed := query.WellFormed(alpha)
	fmt.Printf("\nmatched ⊆ well-formed over {a,b}: equivalent automata? %v\n",
		nwa.Equivalent(matched, wellFormed))
	inter := nwa.Intersect(matched, wellFormed)
	if w, ok := inter.SomeWord(); ok {
		fmt.Printf("a witness in the intersection: %v\n", w)
	}
}
