package word

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/alphabet"
)

// thirdFromEndIsA builds the classic NFA for "the 3rd symbol from the end is
// an a", whose minimal DFA needs 2^3 states.
func nthFromEndIsA(n int) *NFA {
	alpha := alphabet.New("a", "b")
	nfa := NewNFA(alpha, n+1)
	nfa.AddStart(0)
	nfa.AddAccept(n)
	nfa.AddTransition(0, "a", 0)
	nfa.AddTransition(0, "b", 0)
	nfa.AddTransition(0, "a", 1)
	for i := 1; i < n; i++ {
		nfa.AddTransition(i, "a", i+1)
		nfa.AddTransition(i, "b", i+1)
	}
	return nfa
}

func TestNFAAccepts(t *testing.T) {
	nfa := nthFromEndIsA(3)
	cases := map[string]bool{"abb": true, "abbb": false, "aaa": true, "bab": false, "": false, "babb": true}
	for in, want := range cases {
		if got := nfa.Accepts(w(in)); got != want {
			t.Errorf("Accepts(%q) = %v, want %v", in, got, want)
		}
	}
	if nfa.Accepts([]string{"z"}) {
		t.Errorf("unknown symbols should be rejected")
	}
}

func TestDeterminizeMatchesNFA(t *testing.T) {
	nfa := nthFromEndIsA(3)
	dfa := nfa.determinize()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		word := randomWord(rng, 10)
		if nfa.Accepts(word) != dfa.Accepts(word) {
			t.Fatalf("determinization disagrees on %v", word)
		}
	}
}

func TestDeterminizeBlowup(t *testing.T) {
	// The minimal DFA for "n-th symbol from the end is a" has exactly 2^n
	// states: the classic witness of NFA→DFA exponential blowup.
	for n := 1; n <= 6; n++ {
		size := nthFromEndIsA(n).MinimalDFASize()
		want := 1 << n
		if size != want {
			t.Errorf("n=%d: minimal DFA size = %d, want %d", n, size, want)
		}
	}
}

func TestEpsilonTransitions(t *testing.T) {
	alpha := alphabet.New("a", "b")
	// ε-chain: start --ε--> 1 --a--> 2(accept), plus 0 --b--> 2
	nfa := NewNFA(alpha, 3)
	nfa.AddStart(0).AddAccept(2)
	nfa.addEpsilon(0, 1)
	nfa.AddTransition(1, "a", 2)
	nfa.AddTransition(0, "b", 2)
	cases := map[string]bool{"a": true, "b": true, "": false, "ab": false}
	for in, want := range cases {
		if got := nfa.Accepts(w(in)); got != want {
			t.Errorf("Accepts(%q) = %v, want %v", in, got, want)
		}
	}
	d := nfa.determinize()
	for in, want := range cases {
		if got := d.Accepts(w(in)); got != want {
			t.Errorf("Determinize().Accepts(%q) = %v, want %v", in, got, want)
		}
	}
}

func TestEpsilonClosureCycles(t *testing.T) {
	alpha := alphabet.New("a")
	nfa := NewNFA(alpha, 3)
	nfa.AddStart(0).AddAccept(2)
	nfa.addEpsilon(0, 1)
	nfa.addEpsilon(1, 0)
	nfa.addEpsilon(1, 2)
	if !nfa.Accepts(nil) {
		t.Errorf("ε-cycles must not prevent acceptance of the empty word")
	}
}

func TestNFAIsEmpty(t *testing.T) {
	alpha := alphabet.New("a")
	empty := NewNFA(alpha, 2)
	empty.AddStart(0).AddAccept(1) // no transition connects them
	if !empty.determinize().isEmpty() {
		t.Errorf("disconnected NFA should be empty")
	}
	empty.addEpsilon(0, 1)
	if empty.determinize().isEmpty() {
		t.Errorf("ε-reachable accepting state means non-empty")
	}
	if nthFromEndIsA(2).determinize().isEmpty() {
		t.Errorf("non-trivial NFA reported empty")
	}
}

func TestNFAReverse(t *testing.T) {
	nfa := nthFromEndIsA(2) // reversal: 2nd symbol (from the start) is an a
	rev := nfa.reverse()
	cases := map[string]bool{"ba": true, "aa": true, "ab": false, "b": false, "bab": true}
	for in, want := range cases {
		if got := rev.Accepts(w(in)); got != want {
			t.Errorf("Reverse.Accepts(%q) = %v, want %v", in, got, want)
		}
	}
}

func TestAddStateGrows(t *testing.T) {
	nfa := NewNFA(alphabet.New("a"), 0)
	q0 := nfa.AddState()
	q1 := nfa.AddState()
	if q0 != 0 || q1 != 1 || nfa.numStates() != 2 {
		t.Errorf("AddState numbering broken: %d %d %d", q0, q1, nfa.numStates())
	}
}

func TestQuickDeterminizePreservesLanguage(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nfa := randomNFA(rng, 1+rng.Intn(6))
		dfa := nfa.determinize()
		for i := 0; i < 25; i++ {
			word := randomWord(rng, 8)
			if nfa.Accepts(word) != dfa.Accepts(word) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestQuickReverseOfReverse(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nfa := randomNFA(rng, 1+rng.Intn(5))
		rr := nfa.reverse().reverse()
		for i := 0; i < 20; i++ {
			word := randomWord(rng, 8)
			if nfa.Accepts(word) != rr.Accepts(word) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// randomNFA builds a random NFA with n states over {a,b}, including some
// ε-transitions.
func randomNFA(rng *rand.Rand, n int) *NFA {
	alpha := alphabet.New("a", "b")
	nfa := NewNFA(alpha, n)
	nfa.AddStart(rng.Intn(n))
	nfa.AddAccept(rng.Intn(n))
	edges := rng.Intn(3 * n)
	for i := 0; i < edges; i++ {
		from, to := rng.Intn(n), rng.Intn(n)
		switch rng.Intn(3) {
		case 0:
			nfa.AddTransition(from, "a", to)
		case 1:
			nfa.AddTransition(from, "b", to)
		default:
			nfa.addEpsilon(from, to)
		}
	}
	return nfa
}

// closure expands a state set with ε-transitions (in place) and returns it.
// With step and mapAccepts it is the map-based subset simulation Accepts
// replaced, kept as the reference of TestAcceptsMatchesMapReference and of
// mapDeterminize.
func (n *NFA) closure(set map[int]bool) map[int]bool {
	stack := make([]int, 0, len(set))
	for q := range set {
		stack = append(stack, q)
	}
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, next := range n.eps[q] {
			if !set[int(next)] {
				set[int(next)] = true
				stack = append(stack, int(next))
			}
		}
	}
	return set
}

// step returns the ε-closure of the set of states reachable from the given
// set on one occurrence of the symbol index s.
func (n *NFA) step(set map[int]bool, s int) map[int]bool {
	next := make(map[int]bool)
	for q := range set {
		for _, to := range n.succ[q*n.alpha.Size()+s] {
			next[int(to)] = true
		}
	}
	return n.closure(next)
}

// startSet returns the start states as a map-based set.
func (n *NFA) startSet() map[int]bool {
	set := make(map[int]bool)
	for q, ok := range n.start {
		if ok {
			set[q] = true
		}
	}
	return set
}

// mapAccepts is the map-based subset simulation NFA.Accepts replaced: a
// map[int]bool state set, and an ε-closure and successor set allocated per
// step.
func mapAccepts(n *NFA, word []string) bool {
	cur := n.closure(n.startSet())
	for _, sym := range word {
		s, ok := n.alpha.Index(sym)
		if !ok {
			return false
		}
		cur = n.step(cur, s)
		if len(cur) == 0 {
			return false
		}
	}
	for q := range cur {
		if n.accept[q] {
			return true
		}
	}
	return false
}

// mapDeterminize is the map-based subset construction Determinize replaced,
// kept as the reference of TestDeterminizeExactStructure: map[int]bool state
// sets, an ε-closure and a successor set allocated per step, and the same
// canonical set key.
func mapDeterminize(n *NFA) *DFA {
	start := n.closure(n.startSet())
	index := map[string]int{setKey(start): 0}
	sets := []map[int]bool{start}
	var delta [][]int
	var accept []bool

	acceptsSet := func(set map[int]bool) bool {
		for q := range set {
			if n.accept[q] {
				return true
			}
		}
		return false
	}

	for i := 0; i < len(sets); i++ {
		cur := sets[i]
		row := make([]int, n.alpha.Size())
		for s := 0; s < n.alpha.Size(); s++ {
			next := n.step(cur, s)
			key := setKey(next)
			id, ok := index[key]
			if !ok {
				id = len(sets)
				index[key] = id
				sets = append(sets, next)
			}
			row[s] = id
		}
		delta = append(delta, row)
		accept = append(accept, acceptsSet(cur))
	}
	return &DFA{alpha: n.alpha, start: 0, accept: accept, delta: delta}
}

func sortedKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for q := range m {
		out = append(out, q)
	}
	sort.Ints(out)
	return out
}

// setKey builds a canonical string key for a state set.
func setKey(set map[int]bool) string {
	keys := sortedKeys(set)
	buf := make([]byte, 0, 4*len(keys))
	for _, q := range keys {
		buf = append(buf, byte(q), byte(q>>8), byte(q>>16), byte(q>>24))
	}
	return string(buf)
}

// sameStructure fails unless got and want have the same start state,
// accepting states and transition table: the same DFA, numbered alike.
func sameStructure(t *testing.T, name string, got, want *DFA) {
	t.Helper()
	if got.start != want.start || !slices.Equal(got.accept, want.accept) ||
		!slices.EqualFunc(got.delta, want.delta, slices.Equal[[]int]) {
		t.Fatalf("%s: Determinize built %d states (start %d, accept %v, delta %v), reference %d (start %d, accept %v, delta %v)",
			name, got.NumStates(), got.start, got.accept, got.delta, want.NumStates(), want.start, want.accept, want.delta)
	}
}

// TestDeterminizeExactStructure holds Determinize to the map-based
// reference state for state: the query library's regular expressions over
// 3 and 16 labels, and seeded random NFAs with ε-cycles, several start
// states, and unreachable and dead states.
func TestDeterminizeExactStructure(t *testing.T) {
	for _, labels := range [][]string{
		{"a", "b", "c"},
		{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l", "m", "n", "o", "p"},
	} {
		alpha := alphabet.New(labels...)
		for _, patterns := range [][]string{
			{"a"}, {"c"}, {"b", "b"}, {"c", "a"}, {"a", "b", "c"}, {"a", "c", "b"}, {"c", "c", "c"},
		} {
			n := compileRegex(LinearOrderQuery(patterns...), alpha)
			sameStructure(t, fmt.Sprintf("%d labels, order %v", len(labels), patterns), n.determinize(), mapDeterminize(n))
		}
	}
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 600; i++ {
		n := randomWideNFA(rng, 1+rng.Intn(12))
		sameStructure(t, fmt.Sprintf("random NFA %d", i), n.determinize(), mapDeterminize(n))
	}
}

// randomWideNFA builds a random NFA over {a,b,c} with n random states
// 0..n-1 and two more: state n, which has edges out and none in, so no
// start reaches it, and state n+1, which has edges in and none out and
// does not accept, so it is dead.  It has one to three start states and an
// ε-cycle through up to three states, besides random symbol and ε-edges.
func randomWideNFA(rng *rand.Rand, n int) *NFA {
	syms := []string{"a", "b", "c"}
	nfa := NewNFA(alphabet.New(syms...), n+2)
	unreachable, dead := n, n+1
	for i := rng.Intn(3); i >= 0; i-- {
		nfa.AddStart(rng.Intn(n))
	}
	for i := rng.Intn(3); i >= 0; i-- {
		nfa.AddAccept(rng.Intn(n))
	}
	cycle := make([]int, 1+rng.Intn(3))
	for i := range cycle {
		cycle[i] = rng.Intn(n)
	}
	for i, q := range cycle {
		nfa.addEpsilon(q, cycle[(i+1)%len(cycle)])
	}
	for i := rng.Intn(3 * n); i >= 0; i-- {
		from, to := rng.Intn(n), rng.Intn(n)
		if rng.Intn(4) == 0 {
			nfa.addEpsilon(from, to)
		} else {
			nfa.AddTransition(from, syms[rng.Intn(3)], to)
		}
	}
	nfa.AddTransition(unreachable, syms[rng.Intn(3)], rng.Intn(n))
	nfa.addEpsilon(unreachable, rng.Intn(n))
	nfa.AddTransition(rng.Intn(n), syms[rng.Intn(3)], dead)
	nfa.addEpsilon(rng.Intn(n), dead)
	return nfa
}

// TestAcceptsMatchesMapReference holds Accepts to the map-based subset
// simulation it replaced, over the random NFAs of
// TestDeterminizeExactStructure with duplicate symbol and ε-edges added, on
// random words over {a,b,c} that sometimes hold an out-of-alphabet symbol.
func TestAcceptsMatchesMapReference(t *testing.T) {
	nfas := rand.New(rand.NewSource(23)) // the NFAs of TestDeterminizeExactStructure
	rng := rand.New(rand.NewSource(33))
	syms := []string{"a", "b", "c"}
	for i := 0; i < 600; i++ {
		n := randomWideNFA(nfas, 1+nfas.Intn(12))
		for from := range n.numStates() {
			for s, sym := range syms {
				if tos := n.succ[from*len(syms)+s]; len(tos) > 0 && rng.Intn(2) == 0 {
					n.AddTransition(from, sym, int(tos[rng.Intn(len(tos))]))
				}
			}
			if tos := n.eps[from]; len(tos) > 0 && rng.Intn(2) == 0 {
				n.addEpsilon(from, int(tos[rng.Intn(len(tos))]))
			}
		}
		for j := 0; j < 20; j++ {
			word := make([]string, rng.Intn(9))
			for k := range word {
				word[k] = syms[rng.Intn(3)]
				if rng.Intn(40) == 0 {
					word[k] = "z"
				}
			}
			if got, want := n.Accepts(word), mapAccepts(n, word); got != want {
				t.Fatalf("random NFA %d: Accepts(%v) = %v, map reference %v", i, word, got, want)
			}
		}
	}
}
