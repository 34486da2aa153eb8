package word

import (
	"fmt"
	"slices"

	"repro/internal/alphabet"
)

// NFA is a nondeterministic finite word automaton with ε-transitions.
// States are dense integers 0..NumStates-1.  The transition relation is
// stored as the lists the subset construction reads; a list may repeat a
// state, which the subset step's mark array absorbs.
type NFA struct {
	alpha  *alphabet.Alphabet
	start  []bool // start[q]: q is initial
	accept []bool // accept[q]: q is accepting
	// succ[q*Size+s] lists q's successors on symbol index s.
	succ [][]int32
	// eps[q] lists q's ε-successors.
	eps [][]int32
}

// NewNFA creates an NFA over the given alphabet with the given number of
// states and no transitions.
func NewNFA(alpha *alphabet.Alphabet, numStates int) *NFA {
	return &NFA{
		alpha:  alpha,
		start:  make([]bool, numStates),
		accept: make([]bool, numStates),
		succ:   make([][]int32, numStates*alpha.Size()),
		eps:    make([][]int32, numStates),
	}
}

// numStates returns the number of states.
func (n *NFA) numStates() int { return len(n.start) }

// AddState appends a fresh state and returns its index.
func (n *NFA) AddState() int {
	q := len(n.start)
	n.start = append(n.start, false)
	n.accept = append(n.accept, false)
	n.succ = append(n.succ, make([][]int32, n.alpha.Size())...)
	n.eps = append(n.eps, nil)
	return q
}

// AddStart marks states as initial.  It panics on out-of-range states.
func (n *NFA) AddStart(states ...int) *NFA {
	markStates(n.start, "start", states)
	return n
}

// AddAccept marks states as accepting.  It panics on out-of-range states.
func (n *NFA) AddAccept(states ...int) *NFA {
	markStates(n.accept, "accepting", states)
	return n
}

// AddTransition adds from --sym--> to.  It panics on unknown symbols or
// out-of-range states.
func (n *NFA) AddTransition(from int, sym string, to int) *NFA {
	s := n.alpha.MustIndex(sym)
	if !inRange(len(n.start), from, to) {
		panic(fmt.Sprintf("word: transition (%d,%q,%d) out of range [0,%d)", from, sym, to, len(n.start)))
	}
	i := from*n.alpha.Size() + s
	n.succ[i] = append(n.succ[i], int32(to))
	return n
}

// addEpsilon adds an ε-transition from --ε--> to.  It panics on
// out-of-range states.
func (n *NFA) addEpsilon(from, to int) {
	if !inRange(len(n.start), from, to) {
		panic(fmt.Sprintf("word: transition (%d,ε,%d) out of range [0,%d)", from, to, len(n.start)))
	}
	n.eps[from] = append(n.eps[from], int32(to))
}

// inRange reports whether every state lies in [0,numStates).
func inRange(numStates int, states ...int) bool {
	for _, q := range states {
		if q < 0 || q >= numStates {
			return false
		}
	}
	return true
}

// markStates sets set[q] for every state, and panics if one is out of range:
// that is a programming error in automaton construction code.
func markStates(set []bool, role string, states []int) {
	if !inRange(len(set), states...) {
		panic(fmt.Sprintf("word: %s states %v out of range [0,%d)", role, states, len(set)))
	}
	for _, q := range states {
		set[q] = true
	}
}

// subsetStep gathers one set of NFA states at a time: cur holds its states,
// deduplicated with a reusable mark array, so a step allocates nothing once
// cur has grown.
type subsetStep struct {
	n    *NFA
	mark []uint32 // mark[q] == gen: q is in cur
	gen  uint32
	cur  []int32
}

func (n *NFA) newSubsetStep() *subsetStep {
	return &subsetStep{n: n, mark: make([]uint32, n.numStates())}
}

// reset empties cur.
func (st *subsetStep) reset() {
	if st.gen++; st.gen == 0 {
		clear(st.mark)
		st.gen = 1
	}
	st.cur = st.cur[:0]
}

func (st *subsetStep) add(q int32) {
	if st.mark[q] != st.gen {
		st.mark[q] = st.gen
		st.cur = append(st.cur, q)
	}
}

// closeEps closes cur under ε-transitions.
func (st *subsetStep) closeEps() {
	for i := 0; i < len(st.cur); i++ {
		for _, to := range st.n.eps[st.cur[i]] {
			st.add(to)
		}
	}
}

// starts sets cur to the ε-closure of the start states.
func (st *subsetStep) starts() {
	st.reset()
	for q, ok := range st.n.start {
		if ok {
			st.add(int32(q))
		}
	}
	st.closeEps()
}

// step sets cur to the ε-closure of the successors of from on symbol index
// s.  from must not share cur's storage.
func (st *subsetStep) step(from []int32, s int) {
	st.reset()
	size := st.n.alpha.Size()
	for _, q := range from {
		for _, to := range st.n.succ[int(q)*size+s] {
			st.add(to)
		}
	}
	st.closeEps()
}

// accepting reports whether a set of states contains an accepting one.
func (n *NFA) accepting(set []int32) bool {
	return slices.ContainsFunc(set, func(q int32) bool { return n.accept[q] })
}

// Accepts reports whether the NFA accepts the word (subset simulation).
//
//nwvet:oracle TestTheorem3TaggedNFA holds the tagged NFA to the NWA through it
func (n *NFA) Accepts(word []string) bool {
	st := n.newSubsetStep()
	st.starts()
	var prev []int32
	for _, sym := range word {
		s, ok := n.alpha.Index(sym)
		if !ok {
			return false
		}
		prev, st.cur = st.cur, prev
		st.step(prev, s)
		if len(st.cur) == 0 {
			return false
		}
	}
	return n.accepting(st.cur)
}

// determinize performs the subset construction and returns an equivalent
// complete DFA.  Only reachable subsets become states, so the result has at
// most 2^s states.  Subsets are numbered in order of discovery: the start
// set's ε-closure is 0, and each set's successors are found symbol by
// symbol in set order.
//
// A subset is a sorted slice of states, gathered by subsetStep and looked
// up by its canonical key (its states in ascending order, four
// little-endian bytes each) without allocating unless the subset is new.
func (n *NFA) determinize() *DFA {
	size := n.alpha.Size()
	st := n.newSubsetStep()
	index := make(map[string]int)
	var sets [][]int32
	var key []byte
	// number sorts st.cur and returns its ID, numbering it if it is new.
	number := func() int {
		slices.Sort(st.cur)
		key = key[:0]
		for _, q := range st.cur {
			key = append(key, byte(q), byte(q>>8), byte(q>>16), byte(q>>24))
		}
		if id, ok := index[string(key)]; ok {
			return id
		}
		index[string(key)] = len(sets)
		sets = append(sets, slices.Clone(st.cur))
		return len(sets) - 1
	}

	st.starts()
	number()
	var delta [][]int
	var accept []bool
	for i := 0; i < len(sets); i++ {
		row := make([]int, size)
		for s := range row {
			st.step(sets[i], s)
			row[s] = number()
		}
		delta = append(delta, row)
		accept = append(accept, n.accepting(sets[i]))
	}
	return &DFA{alpha: n.alpha, start: 0, accept: accept, delta: delta}
}

// reverse returns an NFA accepting the reversal language: transitions are
// flipped and start/accept states are swapped.  ε-transitions are reversed
// as well.
func (n *NFA) reverse() *NFA {
	size := n.alpha.Size()
	r := NewNFA(n.alpha, n.numStates())
	copy(r.start, n.accept)
	copy(r.accept, n.start)
	for i, tos := range n.succ {
		from, s := i/size, i%size
		for _, to := range tos {
			r.succ[int(to)*size+s] = append(r.succ[int(to)*size+s], int32(from))
		}
	}
	for from, tos := range n.eps {
		for _, to := range tos {
			r.eps[to] = append(r.eps[to], int32(from))
		}
	}
	return r
}

// MinimalDFASize returns the number of states of the minimal complete DFA
// for L(n).  It is the measurement primitive of the succinctness
// experiments.
func (n *NFA) MinimalDFASize() int { return n.determinize().Minimize().NumStates() }
