// Package word implements classical finite-state word automata: DFAs, NFAs
// (with ε-transitions), subset-construction determinization, Moore
// minimization, complement and equivalence, reversal, and the
// regular-expression combinators the query library and the succinctness
// generators build their automata from.
//
// The package is the "words" baseline of the paper "Marrying Words and
// Trees" (Alur, PODS 2007).  Flat nested word automata are equivalent to
// deterministic word automata over the tagged alphabet Σ̂ (Theorem 2), and
// the succinctness experiments E4, E9, and E10 measure the size of *minimal*
// DFAs produced by this package against nested word automata.
package word

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/alphabet"
)

// DFA is a complete deterministic finite word automaton.  States are dense
// integers 0..NumStates-1 and the transition table is total: every state has
// a successor on every alphabet symbol (builders add an explicit dead state
// where needed).
type DFA struct {
	alpha  *alphabet.Alphabet
	start  int
	accept []bool
	// delta[q][s] is the successor of state q on the symbol with index s.
	delta [][]int
}

// DFABuilder incrementally assembles a DFA.  Unspecified transitions go to
// an implicit dead (non-accepting, absorbing) state added by Build when
// needed.
type DFABuilder struct {
	alpha  *alphabet.Alphabet
	start  int
	accept []bool // accept[q]: q is accepting
	// delta[q*Size+s] is the successor of q on symbol index s, or -1 while
	// unset.
	delta []int
}

// NewDFABuilder creates a builder for a DFA over the given alphabet with the
// given number of states; the start state defaults to 0.
func NewDFABuilder(alpha *alphabet.Alphabet, numStates int) *DFABuilder {
	delta := make([]int, numStates*alpha.Size())
	for i := range delta {
		delta[i] = -1
	}
	return &DFABuilder{alpha: alpha, accept: make([]bool, numStates), delta: delta}
}

// SetStart sets the start state.  It panics on an out-of-range state.
func (b *DFABuilder) SetStart(q int) *DFABuilder {
	if !inRange(len(b.accept), q) {
		panic(fmt.Sprintf("word: start state %d out of range [0,%d)", q, len(b.accept)))
	}
	b.start = q
	return b
}

// SetAccept marks states as accepting.  It panics on out-of-range states.
func (b *DFABuilder) SetAccept(states ...int) *DFABuilder {
	markStates(b.accept, "accepting", states)
	return b
}

// AddTransition adds δ(from, sym) = to.  It panics on unknown symbols or
// out-of-range states, which indicate programming errors in automaton
// construction code.
func (b *DFABuilder) AddTransition(from int, sym string, to int) *DFABuilder {
	s := b.alpha.MustIndex(sym)
	if !inRange(len(b.accept), from, to) {
		panic(fmt.Sprintf("word: transition (%d,%q,%d) out of range [0,%d)", from, sym, to, len(b.accept)))
	}
	b.delta[from*b.alpha.Size()+s] = to
	return b
}

// Build completes the DFA.  If any transition is missing, or there are no
// states, a fresh dead state is appended and all missing transitions point
// to it.
func (b *DFABuilder) Build() *DFA {
	size, n := b.alpha.Size(), len(b.accept)
	total, dead := n, -1
	if n == 0 || slices.Contains(b.delta, -1) {
		total, dead = n+1, n
	}
	d := &DFA{
		alpha:  b.alpha,
		start:  b.start,
		accept: make([]bool, total),
		delta:  make([][]int, total),
	}
	copy(d.accept, b.accept)
	cells := make([]int, total*size)
	for i := range cells {
		cells[i] = dead
		if i < len(b.delta) && b.delta[i] >= 0 {
			cells[i] = b.delta[i]
		}
	}
	for q := range d.delta {
		d.delta[q] = cells[q*size : (q+1)*size : (q+1)*size]
	}
	return d
}

// NumStates returns the number of states (including any dead state).
func (d *DFA) NumStates() int { return len(d.delta) }

// Start returns the start state.
func (d *DFA) Start() int { return d.start }

// IsAccepting reports whether state q is accepting.
func (d *DFA) IsAccepting(q int) bool { return q >= 0 && q < len(d.accept) && d.accept[q] }

// Step returns δ(q, sym).  Unknown symbols return (-1, false).
func (d *DFA) Step(q int, sym string) (int, bool) {
	s, ok := d.alpha.Index(sym)
	if !ok || q < 0 || q >= len(d.delta) {
		return -1, false
	}
	return d.delta[q][s], true
}

// Accepts reports whether the DFA accepts the given word.  Words containing
// symbols outside the alphabet are rejected.
func (d *DFA) Accepts(word []string) bool {
	q := d.start
	for _, sym := range word {
		next, ok := d.Step(q, sym)
		if !ok {
			return false
		}
		q = next
	}
	return d.IsAccepting(q)
}

// isEmpty reports whether L(d) = ∅, by reachability from the start state.
func (d *DFA) isEmpty() bool {
	visited := make([]bool, d.NumStates())
	stack := []int{d.start}
	visited[d.start] = true
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if d.accept[q] {
			return false
		}
		for _, next := range d.delta[q] {
			if !visited[next] {
				visited[next] = true
				stack = append(stack, next)
			}
		}
	}
	return true
}

// product builds the product DFA combining acceptance with the given
// boolean function.  Both automata must share the same alphabet.
func product(a, b *DFA, combine func(bool, bool) bool) *DFA {
	if !a.alpha.Equal(b.alpha) {
		panic("word: product of DFAs over different alphabets")
	}
	na, nb := a.NumStates(), b.NumStates()
	n := na * nb
	d := &DFA{
		alpha:  a.alpha,
		start:  a.start*nb + b.start,
		accept: make([]bool, n),
		delta:  make([][]int, n),
	}
	for qa := 0; qa < na; qa++ {
		for qb := 0; qb < nb; qb++ {
			q := qa*nb + qb
			d.accept[q] = combine(a.accept[qa], b.accept[qb])
			row := make([]int, a.alpha.Size())
			for s := 0; s < a.alpha.Size(); s++ {
				row[s] = a.delta[qa][s]*nb + b.delta[qb][s]
			}
			d.delta[q] = row
		}
	}
	return d
}

// Equivalent reports whether two DFAs over the same alphabet accept the same
// language (their symmetric difference is empty).
func Equivalent(a, b *DFA) bool {
	return product(a, b, func(x, y bool) bool { return x != y }).isEmpty()
}

// Minimize returns the minimal complete DFA accepting the same language,
// computed by removing unreachable states and then refining the
// accepting/non-accepting partition to the Myhill–Nerode congruence
// (Moore's algorithm).  The number of states of the result is the
// right-congruence index used by the succinctness experiments.
func (d *DFA) Minimize() *DFA {
	// 1. Restrict to reachable states.
	reach := make([]int, d.NumStates())
	for i := range reach {
		reach[i] = -1
	}
	order := []int{d.start}
	reach[d.start] = 0
	for i := 0; i < len(order); i++ {
		q := order[i]
		for _, next := range d.delta[q] {
			if reach[next] == -1 {
				reach[next] = len(order)
				order = append(order, next)
			}
		}
	}
	n := len(order)
	delta := make([][]int, n)
	accept := make([]bool, n)
	for newQ, oldQ := range order {
		accept[newQ] = d.accept[oldQ]
		row := make([]int, d.alpha.Size())
		for s := 0; s < d.alpha.Size(); s++ {
			row[s] = reach[d.delta[oldQ][s]]
		}
		delta[newQ] = row
	}

	// 2. Partition refinement, from accepting/non-accepting (one block when
	// all states agree).  A state's signature key is its block and its
	// successors' blocks, four little-endian bytes each, built in one
	// reused buffer.
	part := make([]int, n)
	numBlocks := 1
	if slices.Contains(accept, !accept[0]) {
		numBlocks = 2
		for q, a := range accept {
			if a {
				part[q] = 1
			}
		}
	}
	sigIndex := make(map[string]int)
	var key []byte
	newPart := make([]int, n)
	for {
		clear(sigIndex)
		newBlocks := 0
		for q := 0; q < n; q++ {
			key = binary.LittleEndian.AppendUint32(key[:0], uint32(part[q]))
			for _, next := range delta[q] {
				key = binary.LittleEndian.AppendUint32(key, uint32(part[next]))
			}
			id, ok := sigIndex[string(key)]
			if !ok {
				id = newBlocks
				newBlocks++
				sigIndex[string(key)] = id
			}
			newPart[q] = id
		}
		part, newPart = newPart, part
		if newBlocks == numBlocks {
			break
		}
		numBlocks = newBlocks
	}

	// 3. Build the quotient automaton.
	m := &DFA{
		alpha:  d.alpha,
		start:  part[0], // state 0 of the reachable restriction is the start
		accept: make([]bool, numBlocks),
		delta:  make([][]int, numBlocks),
	}
	for q := 0; q < n; q++ {
		blk := part[q]
		if m.delta[blk] == nil {
			row := make([]int, d.alpha.Size())
			for s := 0; s < d.alpha.Size(); s++ {
				row[s] = part[delta[q][s]]
			}
			m.delta[blk] = row
			m.accept[blk] = accept[q]
		}
	}
	return m
}

// toNFA converts the DFA to an equivalent NFA.
func (d *DFA) toNFA() *NFA {
	n := NewNFA(d.alpha, d.NumStates())
	n.AddStart(d.start)
	for q := 0; q < d.NumStates(); q++ {
		if d.accept[q] {
			n.AddAccept(q)
		}
		for s := 0; s < d.alpha.Size(); s++ {
			n.AddTransition(q, d.alpha.Symbol(s), d.delta[q][s])
		}
	}
	return n
}

// Reverse returns a DFA for the reversal language L(d)^R (via NFA reversal
// and determinization).
func (d *DFA) Reverse() *DFA { return d.toNFA().reverse().determinize() }
