package nestedword

// This file implements the operations on nested words of Section 2.4 that
// the library uses: concatenation, subwords and prefixes, and insertion.

// Concat returns the concatenation of the nested words, defined (Section
// 2.4) as w_nw(nw_w(n) nw_w(n')): the tagged encodings are concatenated and
// re-interpreted, so unmatched calls of earlier words may become matched
// with unmatched returns of later words.
func Concat(words ...*NestedWord) *NestedWord {
	total := 0
	for _, w := range words {
		total += w.Len()
	}
	ps := make([]Position, 0, total)
	for _, w := range words {
		ps = append(ps, w.positions...)
	}
	return New(ps...)
}

// subword returns the subword n[i, j] from 0-based position i to position j
// inclusive (the paper's n[i+1, j+1]).  Following Section 2.4, out-of-range
// or empty ranges yield the empty nested word.  Hierarchical edges with only
// one endpoint inside the range become pending in the subword.
func (n *NestedWord) subword(i, j int) *NestedWord {
	if i < 0 || j >= n.Len() || i > j {
		return Empty()
	}
	return New(n.positions[i : j+1]...)
}

// Prefix returns the prefix n[0, j] (empty when j < 0).
func (n *NestedWord) Prefix(j int) *NestedWord { return n.subword(0, j) }

// Insert implements Insert(n, a, n') of Section 2.4: the well-matched nested
// word ins is inserted after every a-labelled position of n.  The paper's
// recursive definition is equivalent to the single pass implemented here.
// If ins is not well-matched the insertion is still performed literally on
// the tagged encodings (callers that need the paper's precondition should
// check IsWellMatched first).
func Insert(n *NestedWord, symbol string, ins *NestedWord) *NestedWord {
	if n.Len() == 0 {
		return New()
	}
	occurrences := 0
	for _, p := range n.positions {
		if p.Symbol == symbol {
			occurrences++
		}
	}
	ps := make([]Position, 0, n.Len()+occurrences*ins.Len())
	for _, p := range n.positions {
		ps = append(ps, p)
		if p.Symbol == symbol {
			ps = append(ps, ins.positions...)
		}
	}
	return New(ps...)
}
