package nwa

import (
	"math/bits"
	"sort"

	"repro/internal/alphabet"
	"repro/internal/nestedword"
)

// NNWA is a nondeterministic nested word automaton (Section 3.2): a finite
// set Q of states, initial states Q0 ⊆ Q, final states F ⊆ Q, a
// call-transition relation δc ⊆ Q×Σ×Q×Q, an internal-transition relation
// δi ⊆ Q×Σ×Q, and a return-transition relation δr ⊆ Q×Q×Σ×Q.
type NNWA struct {
	alpha  *alphabet.Alphabet
	num    int
	starts map[int]bool
	accept map[int]bool
	// callR[(q,s)] is the set of (linear, hier) successor pairs.
	callR map[callKey][]callTarget
	// internR[(q,s)] is the set of linear successors.
	internR map[callKey][]int
	// returnR[(lin,hier,s)] is the set of successors.
	returnR map[returnKey][]int
}

// NewNNWA creates an empty nondeterministic NWA over the given alphabet with
// numStates states.  The Add methods panic on a state outside
// [0, numStates), as DNWABuilder's setters do.
func NewNNWA(alpha *alphabet.Alphabet, numStates int) *NNWA {
	return &NNWA{
		alpha:   alpha,
		num:     numStates,
		starts:  make(map[int]bool),
		accept:  make(map[int]bool),
		callR:   make(map[callKey][]callTarget),
		internR: make(map[callKey][]int),
		returnR: make(map[returnKey][]int),
	}
}

// Alphabet returns the automaton's alphabet.
func (n *NNWA) Alphabet() *alphabet.Alphabet { return n.alpha }

// NumStates returns the number of states.
func (n *NNWA) NumStates() int { return n.num }

// AddStart marks states as initial.
func (n *NNWA) AddStart(states ...int) *NNWA {
	checkStates(n.num, states...)
	for _, q := range states {
		n.starts[q] = true
	}
	return n
}

// AddAccept marks states as final.
func (n *NNWA) AddAccept(states ...int) *NNWA {
	checkStates(n.num, states...)
	for _, q := range states {
		n.accept[q] = true
	}
	return n
}

// AddCall adds the call transition (from, sym, linear, hier) to δc.
func (n *NNWA) AddCall(from int, sym string, linear, hier int) *NNWA {
	checkStates(n.num, from, linear, hier)
	k := callKey{from, n.alpha.MustIndex(sym)}
	n.callR[k] = appendCallTarget(n.callR[k], callTarget{linear, hier})
	return n
}

// AddInternal adds the internal transition (from, sym, to) to δi.
func (n *NNWA) AddInternal(from int, sym string, to int) *NNWA {
	checkStates(n.num, from, to)
	k := callKey{from, n.alpha.MustIndex(sym)}
	n.internR[k] = appendInt(n.internR[k], to)
	return n
}

// AddReturn adds the return transition (lin, hier, sym, to) to δr.
func (n *NNWA) AddReturn(lin, hier int, sym string, to int) *NNWA {
	checkStates(n.num, lin, hier, to)
	k := returnKey{lin, hier, n.alpha.MustIndex(sym)}
	n.returnR[k] = appendInt(n.returnR[k], to)
	return n
}

func appendCallTarget(list []callTarget, t callTarget) []callTarget {
	for _, existing := range list {
		if existing == t {
			return list
		}
	}
	return append(list, t)
}

func appendInt(list []int, v int) []int {
	for _, existing := range list {
		if existing == v {
			return list
		}
	}
	return append(list, v)
}

// StartStates returns the initial states, sorted.
func (n *NNWA) StartStates() []int { return sortedStates(n.starts) }

// IsAccepting reports whether q ∈ F.
func (n *NNWA) IsAccepting(q int) bool { return n.accept[q] }

// NumSymbols returns the alphabet size.
func (n *NNWA) NumSymbols() int { return n.alpha.Size() }

// EachCallEdge calls f for every (linear, hier) pair of δc(q, sym).
func (n *NNWA) EachCallEdge(q, sym int, f func(linear, hier int)) {
	for _, t := range n.callR[callKey{q, sym}] {
		f(t.Linear, t.Hier)
	}
}

// EachInternalEdge calls f for every successor of δi(q, sym).
func (n *NNWA) EachInternalEdge(q, sym int, f func(to int)) {
	for _, to := range n.internR[callKey{q, sym}] {
		f(to)
	}
}

// EachReturnEdge calls f for every successor of δr(lin, hier, sym).
func (n *NNWA) EachReturnEdge(lin, hier, sym int, f func(to int)) {
	for _, to := range n.returnR[returnKey{lin, hier, sym}] {
		f(to)
	}
}

// EachCall calls f for every call transition (state, sym, linear, hier) in
// δc, with sym given as an alphabet index.  Like the DNWA iterators it is the
// hook query.CompileN uses to build indexed adjacency tables.
func (n *NNWA) EachCall(f func(state, sym, linear, hier int)) {
	for k, targets := range n.callR {
		for _, t := range targets {
			f(k.state, k.sym, t.Linear, t.Hier)
		}
	}
}

// EachInternal calls f for every internal transition (state, sym, to) in δi,
// with sym given as an alphabet index.
func (n *NNWA) EachInternal(f func(state, sym, to int)) {
	for k, targets := range n.internR {
		for _, t := range targets {
			f(k.state, k.sym, t)
		}
	}
}

// EachReturn calls f for every return transition (lin, hier, sym, to) in δr,
// with sym given as an alphabet index.
func (n *NNWA) EachReturn(f func(lin, hier, sym, to int)) {
	for k, targets := range n.returnR {
		for _, t := range targets {
			f(k.lin, k.hier, k.sym, t)
		}
	}
}

func sortedStates(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for q, v := range m {
		if v {
			out = append(out, q)
		}
	}
	sort.Ints(out)
	return out
}

// summarySet is the state of the subset construction that Accepts and
// Determinize share (Section 3.2): a set S ⊆ Q×Q of summary pairs, stored as
// an s×s bit matrix whose bit p·s+q is set when (p, q) ∈ S.  A pair (p, q)
// means that the automaton can be in p just after the last pending call (or
// p is initial, when no call is pending) and that some run takes it from p to
// q over the input read since.  The states reachable over the whole prefix
// are therefore the second components of S, and S accepts when one of them
// is final.  Being a string, a summarySet is comparable, so Determinize keys
// its states by it.
type summarySet string

// newSummary returns the empty bit matrix that a step fills in.
func (n *NNWA) newSummary() []byte { return make([]byte, (n.num*n.num+7)/8) }

// addPair puts (p, q) into the bit matrix S.
func (n *NNWA) addPair(S []byte, p, q int) {
	i := p*n.num + q
	S[i/8] |= 1 << (i % 8)
}

// hasPair reports whether (p, q) ∈ S.
func (n *NNWA) hasPair(S summarySet, p, q int) bool {
	i := p*n.num + q
	return S[i/8]&(1<<(i%8)) != 0
}

// eachPair calls f for every (p, q) ∈ S.
func (n *NNWA) eachPair(S summarySet, f func(p, q int)) {
	for i := 0; i < len(S); i++ {
		for b := S[i]; b != 0; b &= b - 1 {
			j := 8*i + bits.TrailingZeros8(b)
			f(j/n.num, j%n.num)
		}
	}
}

// initialSummary is the identity on the initial states.
func (n *NNWA) initialSummary() summarySet {
	next := n.newSummary()
	for q := range n.starts {
		n.addPair(next, q, q)
	}
	return summarySet(next)
}

// stepInternal advances S over an internal position.
func (n *NNWA) stepInternal(S summarySet, sym int) summarySet {
	next := n.newSummary()
	n.eachPair(S, func(p, q int) {
		for _, to := range n.internR[callKey{q, sym}] {
			n.addPair(next, p, to)
		}
	})
	return summarySet(next)
}

// stepCall returns the linear successor of S at a call: a new context starts
// just after the call, so the successor is the identity on the call's linear
// targets from the second components of S.  S itself, with the call symbol,
// is what travels along the hierarchical edge.
func (n *NNWA) stepCall(S summarySet, sym int) summarySet {
	next := n.newSummary()
	n.eachPair(S, func(_, q int) {
		for _, t := range n.callR[callKey{q, sym}] {
			n.addPair(next, t.Linear, t.Linear)
		}
	})
	return summarySet(next)
}

// stepReturnMatched advances S over a return whose matching call read
// callSym in summary set below.
func (n *NNWA) stepReturnMatched(S, below summarySet, callSym, sym int) summarySet {
	next := n.newSummary()
	n.eachPair(below, func(p, q int) {
		for _, t := range n.callR[callKey{q, callSym}] {
			for inner := 0; inner < n.num; inner++ {
				if !n.hasPair(S, t.Linear, inner) {
					continue
				}
				for _, to := range n.returnR[returnKey{inner, t.Hier, sym}] {
					n.addPair(next, p, to)
				}
			}
		}
	})
	return summarySet(next)
}

// stepReturnPending advances S over a pending return: the hierarchical edge
// comes from −∞ and is labelled with an initial state.
func (n *NNWA) stepReturnPending(S summarySet, sym int) summarySet {
	next := n.newSummary()
	n.eachPair(S, func(p, q int) {
		for q0 := range n.starts {
			for _, to := range n.returnR[returnKey{q, q0, sym}] {
				n.addPair(next, p, to)
			}
		}
	})
	return summarySet(next)
}

// accepting reports whether some (p, f) ∈ S has f final.
func (n *NNWA) accepting(S summarySet) bool {
	acc := false
	n.eachPair(S, func(_, q int) { acc = acc || n.accept[q] })
	return acc
}

// frame is a summary set with the call symbol read after it: what Accepts
// pushes at a call, and the hierarchical state (S, a) of the determinized
// automaton.  Determinize keeps its linear states as frames with sym = -1.
type frame struct {
	S   summarySet
	sym int
}

// Accepts reports whether some run of the automaton over the nested word
// ends in a final state.  The simulation tracks sets of state pairs, so the
// running time is O(|A|² · |Q|³ worst case) per position — the dynamic
// programming mentioned in Section 3.2 — and the space is proportional to
// the depth of the word.  Each position's label is resolved to its symbol
// ID once; a label outside the alphabet has no transitions, so every run
// dies there.
func (n *NNWA) Accepts(nw *nestedword.NestedWord) bool {
	S := n.initialSummary()
	var stack []frame
	for i := 0; i < nw.Len(); i++ {
		p := nw.At(i)
		sym, ok := n.alpha.Index(p.Symbol)
		if !ok {
			return false
		}
		switch p.Kind {
		case nestedword.Internal:
			S = n.stepInternal(S, sym)
		case nestedword.Call:
			stack = append(stack, frame{S, sym})
			S = n.stepCall(S, sym)
		case nestedword.Return:
			if len(stack) == 0 {
				S = n.stepReturnPending(S, sym)
			} else {
				top := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				S = n.stepReturnMatched(S, top.S, top.sym, sym)
			}
		}
	}
	return n.accepting(S)
}
