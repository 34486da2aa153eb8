package nwa

import (
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

// addState appends a fresh state and returns its index.
func (n *NNWA) addState() int {
	q := n.num
	n.num++
	return q
}

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

// acceptingStates returns the final states, sorted.
func (n *NNWA) acceptingStates() []int { return sortedStates(n.accept) }

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

// statePair is a pair of states used by the membership simulation and the
// determinization: (from, to) records that some run takes the automaton from
// `from` to `to` over a stretch of the input.
type statePair struct {
	from int
	to   int
}

// simulationState is the subset-construction state used by both Accepts and
// Determinize: S is the set of summary pairs (q, q') such that the automaton
// has a run from q to q' over the portion of the input read since the last
// pending call (or since the beginning of the word when no call is pending),
// and R is the set of states reachable from an initial state over the whole
// prefix read so far.
type simulationState struct {
	S map[statePair]bool
	R map[int]bool
}

func (n *NNWA) initialSimulation() simulationState {
	sim := simulationState{S: make(map[statePair]bool), R: make(map[int]bool)}
	for q := 0; q < n.num; q++ {
		sim.S[statePair{q, q}] = true
	}
	for q := range n.starts {
		sim.R[q] = true
	}
	return sim
}

// stepInternal advances the simulation over an internal position.
func (n *NNWA) stepInternal(sim simulationState, sym int) simulationState {
	next := simulationState{S: make(map[statePair]bool), R: make(map[int]bool)}
	for p := range sim.S {
		for _, to := range n.internR[callKey{p.to, sym}] {
			next.S[statePair{p.from, to}] = true
		}
	}
	for q := range sim.R {
		for _, to := range n.internR[callKey{q, sym}] {
			next.R[to] = true
		}
	}
	return next
}

// stepCall advances the simulation over a call position.  The returned
// simulation state is the linear successor; the previous simulation state
// itself (together with the call symbol) is what a determinized automaton
// propagates along the hierarchical edge, so callers keep it on a stack.
func (n *NNWA) stepCall(sim simulationState, sym int) simulationState {
	next := simulationState{S: make(map[statePair]bool), R: make(map[int]bool)}
	// The new context starts just after this call, so the summary component
	// resets to the identity.
	for q := 0; q < n.num; q++ {
		next.S[statePair{q, q}] = true
	}
	for q := range sim.R {
		for _, t := range n.callR[callKey{q, sym}] {
			next.R[t.Linear] = true
		}
	}
	return next
}

// stepReturnMatched advances the simulation over a return whose matching
// call was read with simulation state below (the state pushed at the call)
// and call symbol callSym.
func (n *NNWA) stepReturnMatched(sim, below simulationState, callSym, sym int) simulationState {
	next := simulationState{S: make(map[statePair]bool), R: make(map[int]bool)}
	for p := range below.S {
		for _, t := range n.callR[callKey{p.to, callSym}] {
			for inner := range sim.S {
				if inner.from != t.Linear {
					continue
				}
				for _, to := range n.returnR[returnKey{inner.to, t.Hier, sym}] {
					next.S[statePair{p.from, to}] = true
				}
			}
		}
	}
	for q := range below.R {
		for _, t := range n.callR[callKey{q, callSym}] {
			for inner := range sim.S {
				if inner.from != t.Linear {
					continue
				}
				for _, to := range n.returnR[returnKey{inner.to, t.Hier, sym}] {
					next.R[to] = true
				}
			}
		}
	}
	return next
}

// stepReturnPending advances the simulation over a pending return: the
// hierarchical edge comes from −∞ and is labelled with an initial state.
func (n *NNWA) stepReturnPending(sim simulationState, sym int) simulationState {
	next := simulationState{S: make(map[statePair]bool), R: make(map[int]bool)}
	for p := range sim.S {
		for q0 := range n.starts {
			for _, to := range n.returnR[returnKey{p.to, q0, sym}] {
				next.S[statePair{p.from, to}] = true
			}
		}
	}
	for q := range sim.R {
		for q0 := range n.starts {
			for _, to := range n.returnR[returnKey{q, q0, sym}] {
				next.R[to] = true
			}
		}
	}
	return next
}

// stackEntry is what the simulation pushes at a call.
type stackEntry struct {
	sim simulationState
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
	sim := n.initialSimulation()
	var stack []stackEntry
	for i := 0; i < nw.Len(); i++ {
		p := nw.At(i)
		sym, ok := n.alpha.Index(p.Symbol)
		if !ok {
			return false
		}
		switch p.Kind {
		case nestedword.Internal:
			sim = n.stepInternal(sim, sym)
		case nestedword.Call:
			stack = append(stack, stackEntry{sim: sim, sym: sym})
			sim = n.stepCall(sim, sym)
		case nestedword.Return:
			if len(stack) == 0 {
				sim = n.stepReturnPending(sim, sym)
			} else {
				top := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				sim = n.stepReturnMatched(sim, top.sim, top.sym, sym)
			}
		}
	}
	for q := range sim.R {
		if n.accept[q] {
			return true
		}
	}
	return false
}
