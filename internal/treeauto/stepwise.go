// Package treeauto implements the tree-automata substrates that the paper
// compares nested word automata against (Sections 3.4–3.6):
//
//   - stepwise bottom-up tree automata for unranked ordered trees
//     (Brüggemann-Klein/Murata/Wood, Martens/Niehren), which over tree words
//     are exactly weak bottom-up NWAs whose return transitions ignore the
//     return symbol (Lemma 1);
//   - top-down tree automata for paths (unary trees), which over tree
//     words correspond to top-down NWAs (Lemma 2) and to word automata
//     reading the path label sequence (Lemma 3).
package treeauto

import (
	"repro/internal/alphabet"
	"repro/internal/nwa"
	"repro/internal/tree"
)

// Stepwise is a deterministic stepwise bottom-up tree automaton over
// unranked ordered trees.  A node labelled a starts in the initial state
// init(a); the states of its children are folded in from left to right with
// the binary transition function step; the tree is accepted when the state
// of the root is final.
type Stepwise struct {
	alpha *alphabet.Alphabet
	num   int
	// initState[s] is the state assigned to an s-labelled node before any of
	// its children have been processed.
	initState []int
	// step[parent*num+child] is the state of the parent after folding in a
	// completed child.
	step   []int
	accept []bool
	dead   int
}

// StepwiseBuilder assembles a stepwise automaton.
type StepwiseBuilder struct {
	a *Stepwise
}

// NewStepwiseBuilder creates a builder with numStates user states over the
// given alphabet; a dead state is appended automatically and all unspecified
// transitions lead to it.
func NewStepwiseBuilder(alpha *alphabet.Alphabet, numStates int) *StepwiseBuilder {
	n := numStates + 1
	a := &Stepwise{
		alpha:     alpha,
		num:       n,
		initState: make([]int, alpha.Size()),
		step:      make([]int, n*n),
		accept:    make([]bool, n),
		dead:      numStates,
	}
	for i := range a.initState {
		a.initState[i] = a.dead
	}
	for i := range a.step {
		a.step[i] = a.dead
	}
	return &StepwiseBuilder{a: a}
}

// Init sets the initial state of sym-labelled nodes.
func (b *StepwiseBuilder) Init(sym string, q int) *StepwiseBuilder {
	b.a.initState[b.a.alpha.MustIndex(sym)] = q
	return b
}

// Step sets step(parent, child) = to.
func (b *StepwiseBuilder) Step(parent, child, to int) *StepwiseBuilder {
	b.a.step[parent*b.a.num+child] = to
	return b
}

// Accept marks states as final.
func (b *StepwiseBuilder) Accept(states ...int) *StepwiseBuilder {
	for _, q := range states {
		b.a.accept[q] = true
	}
	return b
}

// Build returns the completed automaton.
func (b *StepwiseBuilder) Build() *Stepwise { return b.a }

// eval returns the state assigned to the root of the tree, or ok=false for
// the empty tree or labels outside the alphabet.
func (s *Stepwise) eval(t *tree.Tree) (int, bool) {
	if t == nil {
		return 0, false
	}
	si, ok := s.alpha.Index(t.Label)
	if !ok {
		return s.dead, true
	}
	q := s.initState[si]
	for _, c := range t.Children {
		cq, ok := s.eval(c)
		if !ok {
			return s.dead, true
		}
		q = s.step[q*s.num+cq]
	}
	return q, true
}

// Accepts reports whether the automaton accepts the (non-empty) tree.
func (s *Stepwise) Accepts(t *tree.Tree) bool {
	q, ok := s.eval(t)
	return ok && s.accept[q]
}

// ToBottomUpNWA implements Lemma 1: a stepwise bottom-up tree automaton with
// s states yields a bottom-up NWA with the same number of states accepting
// exactly the tree words of the accepted trees.
//
// The stepwise automaton is a weak bottom-up NWA on tree words whose return
// transition ignores the return symbol: reading the a-labelled call of a
// node enters init(a); reading the matching return folds the completed node
// state into its parent's state using step.
func (s *Stepwise) ToBottomUpNWA() *nwa.DNWA {
	// One extra "top" state marks the position before the root call of a
	// tree word; it only ever appears on the hierarchical edge of the root,
	// where the return transition keeps the root's own state so acceptance
	// can be read off the final linear state.  (Lemma 1 is about the user
	// states; the top and dead states are artifacts of the complete-function
	// representation used by this package.)
	top := s.num
	b := nwa.NewDNWABuilder(s.alpha, s.num+1)
	b.SetStart(top)
	for q := 0; q < s.num; q++ {
		if s.accept[q] {
			b.SetAccept(q)
		}
	}
	for si := 0; si < s.alpha.Size(); si++ {
		sym := s.alpha.Symbol(si)
		for q := 0; q <= s.num; q++ {
			// Calls: the linear successor is init(sym) regardless of the
			// current state (bottom-up); the hierarchical edge carries the
			// current state (weak).
			b.Call(q, sym, s.initState[si], q)
		}
		// Returns: fold the completed child state into the parent state on
		// the hierarchical edge; the return symbol is ignored (stepwise).
		for child := 0; child < s.num; child++ {
			b.Return(child, top, sym, child)
			for parent := 0; parent < s.num; parent++ {
				b.Return(child, parent, sym, s.step[parent*s.num+child])
			}
		}
	}
	return b.Build()
}
