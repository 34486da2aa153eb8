// Package pnwa implements pushdown nested word automata, the model
// introduced in Section 4 of "Marrying Words and Trees" (Alur, PODS 2007).
//
// A pushdown nested word automaton adds a stack to the finite-state control
// of a nondeterministic joinless NWA.  States are partitioned into linear
// and hierarchical states; the stack is updated only by ε push/pop moves; at
// a call the current configuration (state and stack) is forked to the linear
// successor and onto the hierarchical edge, each with its own copy of the
// stack; acceptance is by empty stack at the end configuration and at every
// leaf configuration.
//
// The package provides:
//
//   - membership (Theorem 10: NP-complete; implemented as a memoized search
//     over the nested structure of the input),
//   - emptiness by saturation of the summaries R(q, U, q') of Section 4.4
//     (Theorem 11: Exptime-complete),
//   - the embedding of pushdown word automata (Lemma 4),
//   - the NP-hardness reduction of Theorem 10 from CNF satisfiability, and
//   - the "equal number of a's and b's" automaton used by Theorem 9 to
//     separate pushdown nested word automata from pushdown tree automata.
package pnwa

import (
	"sort"

	"repro/internal/alphabet"
)

// Bottom is the reserved bottom-of-stack symbol ⊥.
const bottom = "⊥"

type callKey struct {
	state int
	sym   int
}

type callTarget struct {
	Linear int
	Hier   int
}

type popKey struct {
	state int
	gamma string
}

type pushTarget struct {
	state int
	gamma string
}

// PNWA is a pushdown nested word automaton.
type PNWA struct {
	alpha  *alphabet.Alphabet
	num    int
	hier   []bool
	starts map[int]bool
	// Input transitions (stack untouched).
	callR   map[callKey][]callTarget
	internR map[callKey][]int
	returnR map[callKey][]int
	// ε stack transitions.
	push map[int][]pushTarget
	pop  map[popKey][]int
	// Stack alphabet actually used (excluding ⊥).
	gamma map[string]bool
}

// New creates an empty pushdown NWA with numStates states, all linear; use
// MarkHierarchical to move states into Qh.
func New(alpha *alphabet.Alphabet, numStates int) *PNWA {
	return &PNWA{
		alpha:   alpha,
		num:     numStates,
		hier:    make([]bool, numStates),
		starts:  make(map[int]bool),
		callR:   make(map[callKey][]callTarget),
		internR: make(map[callKey][]int),
		returnR: make(map[callKey][]int),
		push:    make(map[int][]pushTarget),
		pop:     make(map[popKey][]int),
		gamma:   make(map[string]bool),
	}
}

// NumStates returns the number of states.
func (p *PNWA) NumStates() int { return p.num }

// markHierarchical moves states into Qh.
func (p *PNWA) markHierarchical(states ...int) *PNWA {
	for _, q := range states {
		p.hier[q] = true
	}
	return p
}

// AddStart marks states as initial.
func (p *PNWA) AddStart(states ...int) *PNWA {
	for _, q := range states {
		p.starts[q] = true
	}
	return p
}

// startStates returns the initial states, sorted.
func (p *PNWA) startStates() []int {
	out := make([]int, 0, len(p.starts))
	for q := range p.starts {
		out = append(out, q)
	}
	sort.Ints(out)
	return out
}

// AddCall adds the call transition (from, sym, linear, hier).  Calls from
// hierarchical states must target hierarchical states on both edges.
func (p *PNWA) AddCall(from int, sym string, linear, hierTarget int) *PNWA {
	if p.hier[from] && (!p.hier[linear] || !p.hier[hierTarget]) {
		panic("pnwa: call from a hierarchical state must target hierarchical states")
	}
	k := callKey{from, p.alpha.MustIndex(sym)}
	p.callR[k] = append(p.callR[k], callTarget{linear, hierTarget})
	return p
}

// AddInternal adds the internal transition (from, sym, to).
func (p *PNWA) AddInternal(from int, sym string, to int) *PNWA {
	if p.hier[from] && !p.hier[to] {
		panic("pnwa: internal transition from a hierarchical state must target a hierarchical state")
	}
	k := callKey{from, p.alpha.MustIndex(sym)}
	p.internR[k] = append(p.internR[k], to)
	return p
}

// AddReturn adds the return transition (from, sym, to).  As in joinless
// automata, the transition has a single source: the current state when it is
// linear, or the state on the hierarchical edge otherwise.
func (p *PNWA) AddReturn(from int, sym string, to int) *PNWA {
	if p.hier[from] && !p.hier[to] {
		panic("pnwa: return transition from a hierarchical state must target a hierarchical state")
	}
	k := callKey{from, p.alpha.MustIndex(sym)}
	p.returnR[k] = append(p.returnR[k], to)
	return p
}

// AddPush adds the ε-transition (from → to, push gamma); pushing ⊥ is not
// allowed.
func (p *PNWA) AddPush(from, to int, gamma string) *PNWA {
	if gamma == bottom {
		panic("pnwa: pushing the bottom symbol is not allowed")
	}
	p.gamma[gamma] = true
	p.push[from] = append(p.push[from], pushTarget{state: to, gamma: gamma})
	return p
}

// AddPop adds the ε-transition (from, gamma → to), popping gamma.
func (p *PNWA) AddPop(from int, gamma string, to int) *PNWA {
	p.gamma[gamma] = true
	p.pop[popKey{from, gamma}] = append(p.pop[popKey{from, gamma}], to)
	return p
}

// poppableBottom returns the set F of states from which ⊥ can be popped,
// used by the emptiness check of Section 4.4.
func (p *PNWA) poppableBottom() []int {
	var out []int
	for q := 0; q < p.num; q++ {
		if len(p.pop[popKey{q, bottom}]) > 0 {
			out = append(out, q)
		}
	}
	return out
}
