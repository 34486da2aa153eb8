package nwa

import (
	"repro/internal/alphabet"
	"repro/internal/nestedword"
)

// Joinless nested word automata (Section 3.5).  A joinless automaton never
// joins the information flowing along the linear and the hierarchical edges
// at a return: its states are partitioned into linear states Ql and
// hierarchical states Qh, and
//
//   - δc ⊆ (Qh × Σ × Qh × Qh) ∪ (Ql × Σ × Q × Q),
//   - δi ⊆ (Qh × Σ × Qh) ∪ (Ql × Σ × Q),
//   - δr ⊆ (Qh × Σ × Qh) ∪ (Ql × Σ × Q).
//
// At a return, either the automaton is in a linear state, the hierarchical
// edge carries an initial state, and a return transition of the current
// state fires; or the automaton is in an accepting hierarchical state and
// the next state is determined by a return transition of the state on the
// hierarchical edge.
//
// Flat automata are joinless automata with Ql = Q; top-down automata are
// joinless automata with Ql = ∅ and correspond exactly to top-down tree
// automata on tree words (Lemma 2).  Deterministic joinless automata are
// strictly weaker than NWAs (Theorem 6), but nondeterministic joinless
// automata accept all regular languages of nested words (Theorem 7).
type JNWA struct {
	alpha *alphabet.Alphabet
	num   int
	// hier[q] reports whether q ∈ Qh; otherwise q ∈ Ql.
	hier    []bool
	starts  map[int]bool
	accept  map[int]bool
	callR   map[callKey][]callTarget
	internR map[callKey][]int
	// returnR is keyed by (source state, symbol): joinless return
	// transitions do not read the other incoming edge.
	returnR map[callKey][]int
}

// NewJNWA creates an empty joinless automaton with numStates states, all of
// them linear; use MarkHierarchical to move states into Qh.
func NewJNWA(alpha *alphabet.Alphabet, numStates int) *JNWA {
	return &JNWA{
		alpha:   alpha,
		num:     numStates,
		hier:    make([]bool, numStates),
		starts:  make(map[int]bool),
		accept:  make(map[int]bool),
		callR:   make(map[callKey][]callTarget),
		internR: make(map[callKey][]int),
		returnR: make(map[callKey][]int),
	}
}

// NumStates returns the number of states.
func (j *JNWA) NumStates() int { return j.num }

// MarkHierarchical moves states into Qh.
func (j *JNWA) MarkHierarchical(states ...int) *JNWA {
	for _, q := range states {
		j.hier[q] = true
	}
	return j
}

// AddStart marks states as initial.
func (j *JNWA) AddStart(states ...int) *JNWA {
	for _, q := range states {
		j.starts[q] = true
	}
	return j
}

// AddAccept marks states as final.
func (j *JNWA) AddAccept(states ...int) *JNWA {
	for _, q := range states {
		j.accept[q] = true
	}
	return j
}

// startStates returns the initial states, sorted.
func (j *JNWA) startStates() []int { return sortedStates(j.starts) }

// AddCall adds the call transition (from, sym, linear, hier).  It enforces
// the joinless typing discipline: calls from hierarchical states must target
// hierarchical states on both edges.
func (j *JNWA) AddCall(from int, sym string, linear, hierTarget int) *JNWA {
	if j.hier[from] && (!j.hier[linear] || !j.hier[hierTarget]) {
		panic("nwa: joinless call from a hierarchical state must target hierarchical states")
	}
	k := callKey{from, j.alpha.MustIndex(sym)}
	j.callR[k] = appendCallTarget(j.callR[k], callTarget{linear, hierTarget})
	return j
}

// addInternal adds the internal transition (from, sym, to).
func (j *JNWA) addInternal(from int, sym string, to int) *JNWA {
	if j.hier[from] && !j.hier[to] {
		panic("nwa: joinless internal transition from a hierarchical state must target a hierarchical state")
	}
	k := callKey{from, j.alpha.MustIndex(sym)}
	j.internR[k] = appendInt(j.internR[k], to)
	return j
}

// AddReturn adds the return transition (from, sym, to).  Joinless return
// transitions have a single source state: the current state when it is
// linear, or the state on the hierarchical edge when the current state is
// hierarchical.
func (j *JNWA) AddReturn(from int, sym string, to int) *JNWA {
	if j.hier[from] && !j.hier[to] {
		panic("nwa: joinless return transition from a hierarchical state must target a hierarchical state")
	}
	k := callKey{from, j.alpha.MustIndex(sym)}
	j.returnR[k] = appendInt(j.returnR[k], to)
	return j
}

// IsDeterministic reports whether the automaton has a single initial state
// and at most one transition per (state, symbol).
//
//nwvet:oracle TestTopDownPathJNWA checks Lemma 3's path automaton with it
func (j *JNWA) IsDeterministic() bool {
	if len(j.starts) != 1 {
		return false
	}
	for _, targets := range j.callR {
		if len(targets) > 1 {
			return false
		}
	}
	for _, targets := range j.internR {
		if len(targets) > 1 {
			return false
		}
	}
	for _, targets := range j.returnR {
		if len(targets) > 1 {
			return false
		}
	}
	return true
}

// IsTopDown reports whether the automaton is top-down: Ql is empty, so every
// state is hierarchical (Section 3.5).
//
//nwvet:oracle TestTopDownPathJNWA checks Lemma 3's path automaton with it
func (j *JNWA) IsTopDown() bool {
	for q := 0; q < j.num; q++ {
		if !j.hier[q] {
			return false
		}
	}
	return true
}

// toNNWA converts the joinless automaton to an equivalent general
// nondeterministic NWA over the same state set, so that membership,
// emptiness, and equivalence reuse the NNWA algorithms.  The joinless return
// rules become ordinary return transitions:
//
//   - a linear-mode return (q ∈ Ql, symbol a, successor q') requires the
//     hierarchical edge to carry an initial state, so it becomes the
//     transitions (q, q0, a, q') for every q0 ∈ Q0;
//   - a hierarchical-mode return fires when the current state is an
//     accepting hierarchical state qf and consumes a return transition of
//     the state qh on the hierarchical edge, so it becomes (qf, qh, a, q')
//     for every qf ∈ Qh ∩ F and every joinless transition (qh, a, q') with
//     qh ∈ Qh.
func (j *JNWA) toNNWA() *NNWA {
	n := NewNNWA(j.alpha, j.num)
	n.AddStart(j.startStates()...)
	for q := range j.accept {
		n.AddAccept(q)
	}
	for k, targets := range j.callR {
		for _, t := range targets {
			n.AddCall(k.state, j.alpha.Symbol(k.sym), t.Linear, t.Hier)
		}
	}
	for k, targets := range j.internR {
		for _, t := range targets {
			n.AddInternal(k.state, j.alpha.Symbol(k.sym), t)
		}
	}
	starts := j.startStates()
	var acceptingHier []int
	for q := 0; q < j.num; q++ {
		if j.hier[q] && j.accept[q] {
			acceptingHier = append(acceptingHier, q)
		}
	}
	for k, targets := range j.returnR {
		sym := j.alpha.Symbol(k.sym)
		for _, t := range targets {
			if !j.hier[k.state] {
				// Linear-mode rule: the current state is k.state and the
				// hierarchical edge must carry an initial state.
				for _, q0 := range starts {
					n.AddReturn(k.state, q0, sym, t)
				}
			}
			// Hierarchical-mode rule: k.state is the state on the
			// hierarchical edge (of either kind) and the current state must
			// be an accepting hierarchical state.
			for _, qf := range acceptingHier {
				n.AddReturn(qf, k.state, sym, t)
			}
		}
	}
	return n
}

// Accepts reports whether the joinless automaton accepts the nested word.
func (j *JNWA) Accepts(n *nestedword.NestedWord) bool { return j.toNNWA().Accepts(n) }
