// Package generator builds the workload families used by the experiments:
// the witness families from the succinctness theorems of "Marrying Words and
// Trees" (Theorems 3, 5, and 8), the linear-order query documents from the
// introduction, the stem-plus-full-binary-tree family of Figure 2
// (Theorem 9), and random nested words, trees, and XML-like documents.
package generator

import (
	"math/rand"

	"repro/internal/alphabet"
	"repro/internal/nestedword"
	"repro/internal/nwa"
	"repro/internal/tree"
	"repro/internal/word"
)

// AB is the two-letter alphabet {a, b} used by every family in the paper.
var AB = alphabet.New("a", "b")

// RandomNestedWord builds a random nested word of exactly the given length
// over the labels, with arbitrary (possibly pending) hierarchical structure.
func RandomNestedWord(rng *rand.Rand, length int, labels []string) *nestedword.NestedWord {
	kinds := []nestedword.Kind{nestedword.Internal, nestedword.Call, nestedword.Return}
	ps := make([]nestedword.Position, length)
	for i := range ps {
		ps[i] = nestedword.Position{
			Symbol: labels[rng.Intn(len(labels))],
			Kind:   kinds[rng.Intn(len(kinds))],
		}
	}
	return nestedword.New(ps...)
}

// RandomDocument builds a random well-matched nested word ("document") with
// approximately the given number of positions and bounded nesting depth,
// mimicking the shape of an XML document streamed through SAX: elements are
// matched call/return pairs and text is internal positions.
func RandomDocument(rng *rand.Rand, size, maxDepth int, labels []string) *nestedword.NestedWord {
	var ps []nestedword.Position
	var build func(budget, depth int) int
	build = func(budget, depth int) int {
		used := 0
		for used < budget {
			switch {
			case depth < maxDepth && budget-used >= 2 && rng.Intn(3) == 0:
				sym := labels[rng.Intn(len(labels))]
				ps = append(ps, nestedword.Position{Symbol: sym, Kind: nestedword.Call})
				inner := build(rng.Intn(budget-used-1), depth+1)
				ps = append(ps, nestedword.Position{Symbol: sym, Kind: nestedword.Return})
				used += inner + 2
			default:
				ps = append(ps, nestedword.Position{Symbol: labels[rng.Intn(len(labels))], Kind: nestedword.Internal})
				used++
			}
		}
		return used
	}
	build(size, 0)
	return nestedword.New(ps...)
}

// RandomTree builds a random non-empty ordered tree with the given
// approximate size over the labels.
func RandomTree(rng *rand.Rand, size int, labels []string) *tree.Tree {
	if size <= 1 {
		return tree.Leaf(labels[rng.Intn(len(labels))])
	}
	remaining := size - 1
	var children []*tree.Tree
	for remaining > 0 {
		chunk := 1 + rng.Intn(remaining)
		children = append(children, RandomTree(rng, chunk, labels))
		remaining -= chunk
	}
	return tree.New(labels[rng.Intn(len(labels))], children...)
}

// ---------------------------------------------------------------------------
// Theorem 3: L_s = { path(w) : w ∈ Σ^s }.
// ---------------------------------------------------------------------------

// theorem3Member returns path(w) for a word w ∈ {a,b}^s given as a bitmask
// (bit i set means the i-th letter is "b").
func theorem3Member(s int, mask int) *nestedword.NestedWord {
	w := make([]string, s)
	for i := 0; i < s; i++ {
		if mask&(1<<i) != 0 {
			w[i] = "b"
		} else {
			w[i] = "a"
		}
	}
	return nestedword.Path(w...)
}

// Theorem3NWA builds a deterministic NWA with O(s) states accepting
// L_s = { path(w) : w ∈ {a,b}^s }: a depth counter on the way down, with the
// call symbol passed along the hierarchical edge and checked at the matching
// return (the automaton sketched in the proof of Theorem 3).
func Theorem3NWA(s int) *nwa.DNWA {
	// States: down(0..s), up, acc, and four hierarchical markers
	// distinguishing the outermost call and the call symbol.
	down := func(i int) int { return i }
	up := s + 1
	acc := s + 2
	mInnerA, mInnerB, mOuterA, mOuterB := s+3, s+4, s+5, s+6
	b := nwa.NewDNWABuilder(AB, s+7)
	b.SetStart(down(0))
	b.SetAccept(acc)
	marker := func(depth int, sym string) int {
		if depth == 0 {
			if sym == "a" {
				return mOuterA
			}
			return mOuterB
		}
		if sym == "a" {
			return mInnerA
		}
		return mInnerB
	}
	for i := 0; i < s; i++ {
		for _, sym := range []string{"a", "b"} {
			b.Call(down(i), sym, down(i+1), marker(i, sym))
		}
	}
	// Returns are only legal once depth s has been reached; the symbol must
	// match the marker, and the outermost marker leads to acceptance.
	for _, lin := range []int{down(s), up} {
		b.Return(lin, mInnerA, "a", up)
		b.Return(lin, mInnerB, "b", up)
		b.Return(lin, mOuterA, "a", acc)
		b.Return(lin, mOuterB, "b", acc)
	}
	return b.Build()
}

// Theorem3TaggedNFA builds a nondeterministic word automaton over the tagged
// alphabet accepting nw_w(L_s) as a trie of the 2^s members; determinizing
// and minimizing it measures the exponential lower bound of Theorem 3 for
// word automata.
func Theorem3TaggedNFA(s int) *word.NFA {
	tagged := nwa.TaggedAlphabet(AB)
	nfa := word.NewNFA(tagged, 1)
	nfa.AddStart(0)
	for mask := 0; mask < 1<<s; mask++ {
		member := theorem3Member(s, mask)
		cur := 0
		for _, t := range nwa.TaggedWord(member) {
			next := nfa.AddState()
			nfa.AddTransition(cur, t, next)
			cur = next
		}
		nfa.AddAccept(cur)
	}
	return nfa
}

// ---------------------------------------------------------------------------
// Theorem 5: the flat-vs-bottom-up family of tree words.
// ---------------------------------------------------------------------------

// Theorem5Block returns the j-th leaf block ⟨a⟩ or ⟨b⟩ of the Theorem 5
// family, selected by a bit.
func theorem5Block(isB bool) []nestedword.Position {
	sym := "a"
	if isB {
		sym = "b"
	}
	return []nestedword.Position{
		{Symbol: sym, Kind: nestedword.Call},
		{Symbol: sym, Kind: nestedword.Return},
	}
}

// Theorem5BlockWord returns the concatenation B_1 ... B_s ∈ L^s encoded by
// the bitmask (bit j set means B_{j+1} = ⟨b⟩).
func Theorem5BlockWord(s int, mask int) *nestedword.NestedWord {
	var ps []nestedword.Position
	for j := 0; j < s; j++ {
		ps = append(ps, theorem5Block(mask&(1<<j) != 0)...)
	}
	return nestedword.New(ps...)
}

// theorem5Word builds the full member ⟨a ⟨b⟩^m ⟨a B_1...B_s a⟩ a⟩ of the
// Theorem 5 family from the repeat count m and the block word; whether it
// belongs to L_s depends on block (m mod s)+1 being ⟨a⟩.
func theorem5Word(m int, blocks *nestedword.NestedWord) *nestedword.NestedWord {
	var ps []nestedword.Position
	ps = append(ps, nestedword.Position{Symbol: "a", Kind: nestedword.Call})
	for i := 0; i < m; i++ {
		ps = append(ps, theorem5Block(true)...)
	}
	ps = append(ps, nestedword.Position{Symbol: "a", Kind: nestedword.Call})
	ps = append(ps, blocks.Positions()...)
	ps = append(ps, nestedword.Position{Symbol: "a", Kind: nestedword.Return})
	ps = append(ps, nestedword.Position{Symbol: "a", Kind: nestedword.Return})
	return nestedword.New(ps...)
}

// theorem5Predicate reports membership in the Theorem 5 language L_s:
// tree words of the form ⟨a ⟨b⟩^m ⟨a L^{i-1} ⟨a⟩ L^{s-i} a⟩ a⟩ with
// i = (m mod s) + 1.
//
//nwvet:oracle TestTheorem5Family holds Theorem5FlatDFA, read as a flat NWA, to it
func theorem5Predicate(s int, n *nestedword.NestedWord) bool {
	ps := n.Positions()
	idx := 0
	expect := func(sym string, kind nestedword.Kind) bool {
		if idx >= len(ps) || ps[idx].Symbol != sym || ps[idx].Kind != kind {
			return false
		}
		idx++
		return true
	}
	if !expect("a", nestedword.Call) {
		return false
	}
	m := 0
	for idx+1 < len(ps) && ps[idx].Symbol == "b" && ps[idx].Kind == nestedword.Call &&
		ps[idx+1].Symbol == "b" && ps[idx+1].Kind == nestedword.Return {
		idx += 2
		m++
	}
	if !expect("a", nestedword.Call) {
		return false
	}
	forced := (m % s) + 1
	for j := 1; j <= s; j++ {
		if idx+1 >= len(ps) || ps[idx].Kind != nestedword.Call || ps[idx+1].Kind != nestedword.Return {
			return false
		}
		sym := ps[idx].Symbol
		if ps[idx+1].Symbol != sym || (sym != "a" && sym != "b") {
			return false
		}
		if j == forced && sym != "a" {
			return false
		}
		idx += 2
	}
	if !expect("a", nestedword.Return) {
		return false
	}
	if !expect("a", nestedword.Return) {
		return false
	}
	return idx == len(ps)
}

// Theorem5FlatDFA builds a deterministic word automaton over the tagged
// alphabet with O(s²) states accepting nw_w(L_s); interpreting it as a flat
// NWA (Theorem 2) gives the flat automaton whose existence Theorem 5 claims.
func Theorem5FlatDFA(s int) *word.DFA {
	tagged := nwa.TaggedAlphabet(AB)
	// States:
	//   0                      : expect the outer ⟨a
	//   cnt(r), bmid(r)        : counting ⟨b⟩ repetitions mod s
	//   blk(i, j), blkIn(i, j) : reading the j-th leaf block, forced index i
	//   tail1, tail2, accept   : the closing a⟩ a⟩
	cnt := func(r int) int { return 1 + r }
	bmid := func(r int) int { return 1 + s + r }
	blkBase := 1 + 2*s
	blk := func(i, j int) int { return blkBase + ((i-1)*(s+1)+(j-1))*3 }
	blkInA := func(i, j int) int { return blk(i, j) + 1 }
	blkInB := func(i, j int) int { return blk(i, j) + 2 }
	tail1 := blkBase + s*(s+1)*3
	accept := tail1 + 1
	total := accept + 1

	b := word.NewDFABuilder(tagged, total)
	b.SetStart(0).SetAccept(accept)
	b.AddTransition(0, "<a", cnt(0))
	for r := 0; r < s; r++ {
		b.AddTransition(cnt(r), "<b", bmid(r))
		b.AddTransition(bmid(r), "b>", cnt((r+1)%s))
		// Leaving the counting phase fixes the forced index i = r+1.
		b.AddTransition(cnt(r), "<a", blk(r+1, 1))
	}
	for i := 1; i <= s; i++ {
		for j := 1; j <= s; j++ {
			// Block j may be ⟨a⟩ always, and ⟨b⟩ only when j ≠ i.
			b.AddTransition(blk(i, j), "<a", blkInA(i, j))
			b.AddTransition(blkInA(i, j), "a>", blk(i, j+1))
			if j != i {
				b.AddTransition(blk(i, j), "<b", blkInB(i, j))
				b.AddTransition(blkInB(i, j), "b>", blk(i, j+1))
			}
		}
		b.AddTransition(blk(i, s+1), "a>", tail1)
	}
	b.AddTransition(tail1, "a>", accept)
	return b.Build()
}

// Theorem5Context wraps a block word into the distinguishing context
// ⟨a ⟨b⟩^m ⟨a [·] a⟩ a⟩ with m = i-1, which forces the i-th block to be ⟨a⟩.
func Theorem5Context(i int, blocks *nestedword.NestedWord) *nestedword.NestedWord {
	return theorem5Word(i-1, blocks)
}

// ---------------------------------------------------------------------------
// Theorem 8: the path family L_s = Σ^s a Σ* a Σ^s.
// ---------------------------------------------------------------------------

// Theorem8Regex returns the word language L_s = Σ^s a Σ* a Σ^s as a regular
// expression over {a, b}.
func Theorem8Regex(s int) word.Regex {
	parts := make([]word.Regex, 0, 2*s+3)
	for i := 0; i < s; i++ {
		parts = append(parts, word.AnySymbol())
	}
	parts = append(parts, word.Symbol("a"), word.SigmaStar(), word.Symbol("a"))
	for i := 0; i < s; i++ {
		parts = append(parts, word.AnySymbol())
	}
	return word.Concat(parts...)
}

// Theorem8NWA builds a deterministic NWA with O(s) states accepting
// { path(w) : w ∈ L_s }: it counts s+1 calls going down (checking that the
// (s+1)-th symbol is an a), counts s+1 returns coming back up (checking that
// the (s+1)-th-from-the-end symbol is an a), and verifies that the input is
// a path word by passing each call symbol along the hierarchical edge.
func Theorem8NWA(s int) *nwa.DNWA {
	down := func(i int) int { return i } // 0..s
	downFree := s + 1
	upBase := s + 2 // up(1..s)
	up := func(j int) int { return upBase + j - 1 }
	upFree := upBase + s
	mEarlyA, mEarlyB, mLateA, mLateB := upFree+1, upFree+2, upFree+3, upFree+4
	b := nwa.NewDNWABuilder(AB, upFree+5)
	b.SetStart(down(0))
	b.SetAccept(upFree)

	earlyMarker := func(sym string) int {
		if sym == "a" {
			return mEarlyA
		}
		return mEarlyB
	}
	lateMarker := func(sym string) int {
		if sym == "a" {
			return mLateA
		}
		return mLateB
	}
	// Down phase: the first s calls are free, the (s+1)-th must be an a, and
	// everything after that is free; the first s+1 calls push "early"
	// markers, later calls push "late" markers.
	for i := 0; i < s; i++ {
		for _, sym := range []string{"a", "b"} {
			b.Call(down(i), sym, down(i+1), earlyMarker(sym))
		}
	}
	b.Call(down(s), "a", downFree, earlyMarker("a"))
	for _, sym := range []string{"a", "b"} {
		b.Call(downFree, sym, downFree, lateMarker(sym))
	}
	// Up phase: the first return can only arrive in the free zone; the j-th
	// return moves the counter; the (s+1)-th return must read an a pushed by
	// a late call (so that the word is long enough); afterwards the symbols
	// only need to match their markers.
	match := func(lin int, target int) {
		b.Return(lin, mEarlyA, "a", target)
		b.Return(lin, mEarlyB, "b", target)
		b.Return(lin, mLateA, "a", target)
		b.Return(lin, mLateB, "b", target)
	}
	if s == 0 {
		// L_0 = a Σ* a; the first return must already check the late-a rule.
		b.Return(downFree, mLateA, "a", upFree)
		match(upFree, upFree)
	} else {
		match(downFree, up(1))
		for j := 1; j < s; j++ {
			match(up(j), up(j+1))
		}
		b.Return(up(s), mLateA, "a", upFree)
		match(upFree, upFree)
	}
	return b.Build()
}

// ---------------------------------------------------------------------------
// Introduction / E10: linear-order query documents.
// ---------------------------------------------------------------------------

// LinearOrderDocument builds a well-matched document whose leaves spell out
// the given pattern subset: for each index i < n, if the bit is set the
// document contains a leaf labelled pi ("p" is the common prefix only
// conceptually — labels are "a" for present markers and "b" for padding).
// It is used to exhibit 2^n pairwise-inequivalent well-matched words for the
// bottom-up lower bound of the introduction's query.
func LinearOrderDocument(n int, mask int) *nestedword.NestedWord {
	var ps []nestedword.Position
	ps = append(ps, nestedword.Position{Symbol: "r", Kind: nestedword.Call})
	for i := 0; i < n; i++ {
		sym := "b"
		if mask&(1<<i) != 0 {
			sym = "p" + itoa(i+1)
		}
		ps = append(ps, nestedword.Position{Symbol: sym, Kind: nestedword.Call})
		ps = append(ps, nestedword.Position{Symbol: sym, Kind: nestedword.Return})
	}
	ps = append(ps, nestedword.Position{Symbol: "r", Kind: nestedword.Return})
	return nestedword.New(ps...)
}

// LinearOrderAlphabet returns the alphabet used by LinearOrderDocument for n
// patterns.
func LinearOrderAlphabet(n int) *alphabet.Alphabet {
	syms := []string{"r", "b"}
	for i := 1; i <= n; i++ {
		syms = append(syms, "p"+itoa(i))
	}
	return alphabet.New(syms...)
}

// Figure2Tree builds the tree of Figure 2 (Theorem 9): a stem of 2s
// a-labelled unary nodes followed by a full binary tree of depth s with
// b-labelled nodes.
func Figure2Tree(s int) *tree.Tree {
	return tree.Stem("a", 2*s, tree.FullBinary("b", s))
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	digits := []byte{}
	for v > 0 {
		digits = append([]byte{byte('0' + v%10)}, digits...)
		v /= 10
	}
	return string(digits)
}
