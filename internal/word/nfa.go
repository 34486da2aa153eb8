package word

import (
	"slices"
	"sort"

	"repro/internal/alphabet"
)

// NFA is a nondeterministic finite word automaton with ε-transitions.
// States are dense integers 0..NumStates-1.
type NFA struct {
	alpha  *alphabet.Alphabet
	starts map[int]bool
	accept map[int]bool
	// delta[q][s] is the set of successors of q on symbol index s.
	delta map[int]map[int]map[int]bool
	// eps[q] is the set of ε-successors of q.
	eps       map[int]map[int]bool
	numStates int
}

// NewNFA creates an NFA over the given alphabet with the given number of
// states and no transitions.
func NewNFA(alpha *alphabet.Alphabet, numStates int) *NFA {
	return &NFA{
		alpha:     alpha,
		starts:    make(map[int]bool),
		accept:    make(map[int]bool),
		delta:     make(map[int]map[int]map[int]bool),
		eps:       make(map[int]map[int]bool),
		numStates: numStates,
	}
}

// Alphabet returns the automaton's alphabet.
func (n *NFA) Alphabet() *alphabet.Alphabet { return n.alpha }

// NumStates returns the number of states.
func (n *NFA) NumStates() int { return n.numStates }

// AddState appends a fresh state and returns its index.
func (n *NFA) AddState() int {
	q := n.numStates
	n.numStates++
	return q
}

// AddStart marks states as initial.
func (n *NFA) AddStart(states ...int) *NFA {
	for _, q := range states {
		n.starts[q] = true
	}
	return n
}

// AddAccept marks states as accepting.
func (n *NFA) AddAccept(states ...int) *NFA {
	for _, q := range states {
		n.accept[q] = true
	}
	return n
}

// AddTransition adds from --sym--> to.
func (n *NFA) AddTransition(from int, sym string, to int) *NFA {
	s := n.alpha.MustIndex(sym)
	if n.delta[from] == nil {
		n.delta[from] = make(map[int]map[int]bool)
	}
	if n.delta[from][s] == nil {
		n.delta[from][s] = make(map[int]bool)
	}
	n.delta[from][s][to] = true
	return n
}

// AddEpsilon adds an ε-transition from --ε--> to.
func (n *NFA) AddEpsilon(from, to int) *NFA {
	if n.eps[from] == nil {
		n.eps[from] = make(map[int]bool)
	}
	n.eps[from][to] = true
	return n
}

// Starts returns the set of initial states, sorted.
func (n *NFA) Starts() []int { return sortedKeys(n.starts) }

// Accepting returns the set of accepting states, sorted.
func (n *NFA) Accepting() []int { return sortedKeys(n.accept) }

func sortedKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for q := range m {
		out = append(out, q)
	}
	sort.Ints(out)
	return out
}

// closure expands a state set with ε-transitions (in place) and returns it.
func (n *NFA) closure(set map[int]bool) map[int]bool {
	stack := make([]int, 0, len(set))
	for q := range set {
		stack = append(stack, q)
	}
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for next := range n.eps[q] {
			if !set[next] {
				set[next] = true
				stack = append(stack, next)
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
		for to := range n.delta[q][s] {
			next[to] = true
		}
	}
	return n.closure(next)
}

// Accepts reports whether the NFA accepts the word (subset simulation).
func (n *NFA) Accepts(word []string) bool {
	cur := n.closure(copySet(n.starts))
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

func copySet(m map[int]bool) map[int]bool {
	out := make(map[int]bool, len(m))
	for k, v := range m {
		if v {
			out[k] = true
		}
	}
	return out
}

// Determinize performs the subset construction and returns an equivalent
// complete DFA.  Only reachable subsets become states, so the result has at
// most 2^s states.  Subsets are numbered in order of discovery: the start
// set's ε-closure is 0, and each set's successors are found symbol by
// symbol in set order.
//
// A subset is a sorted slice of states.  Each step gathers the successors
// from precomputed per-(state, symbol) and ε lists, deduplicating with one
// reusable mark array, and looks the subset up by its canonical key (its
// states in ascending order, four little-endian bytes each) without
// allocating unless the subset is new.
func (n *NFA) Determinize() *DFA {
	size := n.alpha.Size()
	succ, eps := n.lists()
	mark := make([]uint32, len(eps)) // mark[q] == gen: q is in cur
	var gen uint32
	var cur []int32
	reset := func() {
		if gen++; gen == 0 {
			clear(mark)
			gen = 1
		}
		cur = cur[:0]
	}
	add := func(q int32) {
		if mark[q] != gen {
			mark[q] = gen
			cur = append(cur, q)
		}
	}
	index := make(map[string]int)
	var sets [][]int32
	var key []byte
	// number closes cur under ε, sorts it, and returns its ID, numbering
	// it if it is new.
	number := func() int {
		for i := 0; i < len(cur); i++ {
			for _, to := range eps[cur[i]] {
				add(to)
			}
		}
		slices.Sort(cur)
		key = key[:0]
		for _, q := range cur {
			key = append(key, byte(q), byte(q>>8), byte(q>>16), byte(q>>24))
		}
		if id, ok := index[string(key)]; ok {
			return id
		}
		index[string(key)] = len(sets)
		sets = append(sets, slices.Clone(cur))
		return len(sets) - 1
	}

	reset()
	for q := range n.starts {
		add(int32(q))
	}
	number()
	var delta [][]int
	var accept []bool
	for i := 0; i < len(sets); i++ {
		row := make([]int, size)
		for s := range row {
			reset()
			for _, q := range sets[i] {
				for _, to := range succ[int(q)*size+s] {
					add(to)
				}
			}
			row[s] = number()
		}
		delta = append(delta, row)
		accept = append(accept, slices.ContainsFunc(sets[i], func(q int32) bool { return n.accept[int(q)] }))
	}
	return &DFA{alpha: n.alpha, start: 0, accept: accept, delta: delta}
}

// lists returns the transition relation as slices: succ[q*Size+s] lists
// q's successors on symbol index s and eps[q] its ε-successors.
func (n *NFA) lists() (succ, eps [][]int32) {
	size := n.alpha.Size()
	succ, eps = make([][]int32, n.numStates*size), make([][]int32, n.numStates)
	for q, bySym := range n.delta {
		for s, tos := range bySym {
			for to := range tos {
				succ[q*size+s] = append(succ[q*size+s], int32(to))
			}
		}
	}
	for q, tos := range n.eps {
		for to := range tos {
			eps[q] = append(eps[q], int32(to))
		}
	}
	return succ, eps
}

// Reverse returns an NFA accepting the reversal language: transitions are
// flipped and start/accept states are swapped.  ε-transitions are reversed
// as well.
func (n *NFA) Reverse() *NFA {
	r := NewNFA(n.alpha, n.numStates)
	r.AddStart(n.Accepting()...)
	r.AddAccept(n.Starts()...)
	for from, bySym := range n.delta {
		for s, tos := range bySym {
			for to := range tos {
				r.AddTransition(to, n.alpha.Symbol(s), from)
			}
		}
	}
	for from, tos := range n.eps {
		for to := range tos {
			r.AddEpsilon(to, from)
		}
	}
	return r
}

// IsEmpty reports whether the NFA accepts no word (reachability over
// symbol and ε edges).
func (n *NFA) IsEmpty() bool {
	visited := make(map[int]bool)
	var stack []int
	for q := range n.starts {
		visited[q] = true
		stack = append(stack, q)
	}
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n.accept[q] {
			return false
		}
		push := func(next int) {
			if !visited[next] {
				visited[next] = true
				stack = append(stack, next)
			}
		}
		for _, tos := range n.delta[q] {
			for to := range tos {
				push(to)
			}
		}
		for to := range n.eps[q] {
			push(to)
		}
	}
	return true
}

// MinimalDFASize returns the number of states of the minimal complete DFA
// for L(n).  It is the measurement primitive of the succinctness
// experiments.
func (n *NFA) MinimalDFASize() int { return n.Determinize().Minimize().NumStates() }
