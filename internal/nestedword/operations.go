package nestedword

// This file implements the word and tree operations on nested words of
// Section 2.4: concatenation, subwords/prefixes/suffixes, reverse, and
// insertion, plus the subtree deletion and substitution operations the paper
// mentions can be defined similarly.

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

// suffix returns the suffix n[i, ℓ-1] (empty when i ≥ ℓ).
func (n *NestedWord) suffix(i int) *NestedWord { return n.subword(i, n.Len()-1) }

// reverse returns the reverse of the nested word (Section 2.4): the
// underlying word is reversed and every hierarchical edge is reversed, which
// amounts to reversing the sequence while swapping calls and returns.
func (n *NestedWord) reverse() *NestedWord {
	l := n.Len()
	ps := make([]Position, l)
	for i, p := range n.positions {
		q := p
		switch p.Kind {
		case Call:
			q.Kind = Return
		case Return:
			q.Kind = Call
		}
		ps[l-1-i] = q
	}
	return New(ps...)
}

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

// insertAt inserts the nested word ins after 0-based position i of n
// (or before position 0 when i == -1).  It is the primitive from which
// Insert and tree substitution are built.
func insertAt(n *NestedWord, i int, ins *NestedWord) *NestedWord {
	if i < -1 || i >= n.Len() {
		return New(n.positions...)
	}
	ps := make([]Position, 0, n.Len()+ins.Len())
	ps = append(ps, n.positions[:i+1]...)
	ps = append(ps, ins.positions...)
	ps = append(ps, n.positions[i+1:]...)
	return New(ps...)
}

// deleteSubtree removes the rooted subword headed by the call at position i
// (the call, its return-successor, and everything in between).  It returns
// the original word unchanged when i is not a matched call.  This is the
// nested-word form of subtree deletion mentioned in Section 2.4.
func deleteSubtree(n *NestedWord, i int) *NestedWord {
	j, ok := n.ReturnSuccessor(i)
	if !ok || j == Pending {
		return New(n.positions...)
	}
	ps := make([]Position, 0, n.Len()-(j-i+1))
	ps = append(ps, n.positions[:i]...)
	ps = append(ps, n.positions[j+1:]...)
	return New(ps...)
}

// substituteSubtree replaces the rooted subword headed by the call at
// position i with the nested word repl.  It returns the original word
// unchanged when i is not a matched call.  This is the nested-word form of
// subtree substitution mentioned in Section 2.4.
func substituteSubtree(n *NestedWord, i int, repl *NestedWord) *NestedWord {
	j, ok := n.ReturnSuccessor(i)
	if !ok || j == Pending {
		return New(n.positions...)
	}
	ps := make([]Position, 0, n.Len()-(j-i+1)+repl.Len())
	ps = append(ps, n.positions[:i]...)
	ps = append(ps, repl.positions...)
	ps = append(ps, n.positions[j+1:]...)
	return New(ps...)
}

// rootedSubword returns the rooted subword n[i, j] headed by the matched
// call at position i with return-successor j, together with ok reporting
// whether i is indeed a matched call.
func (n *NestedWord) rootedSubword(i int) (*NestedWord, bool) {
	j, ok := n.ReturnSuccessor(i)
	if !ok || j == Pending {
		return nil, false
	}
	return n.subword(i, j), true
}

// repeat returns the k-fold concatenation of n with itself (the building
// block of Kleene-star witnesses and of several experiment families).
// repeat(n, 0) is the empty nested word.
func repeat(n *NestedWord, k int) *NestedWord {
	if k <= 0 {
		return Empty()
	}
	ps := make([]Position, 0, k*n.Len())
	for i := 0; i < k; i++ {
		ps = append(ps, n.positions...)
	}
	return New(ps...)
}
