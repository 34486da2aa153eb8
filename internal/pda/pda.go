// Package pda implements nondeterministic pushdown word automata accepting
// by empty stack, the "words" baseline of Section 4 of "Marrying Words and
// Trees" (Alur, PODS 2007).
//
// Following the paper's presentation of pushdown nested word automata, the
// stack is updated only by ε-moves: push transitions (q, q', γ) and pop
// transitions (q, γ, q') change the configuration without reading input,
// while read transitions (q, a, q') consume one input symbol and leave the
// stack unchanged.  A word is accepted if some run from an initial
// configuration (q0, ⊥) consumes the whole word and ends with an empty
// stack.
package pda

import (
	"sort"

	"repro/internal/alphabet"
)

// Bottom is the reserved bottom-of-stack symbol ⊥.
const Bottom = "⊥"

// PDA is a nondeterministic pushdown word automaton accepting by empty
// stack.
type PDA struct {
	alpha  *alphabet.Alphabet
	num    int
	starts map[int]bool
	// read[(q, symIdx)] lists successor states.
	read map[[2]int][]int
	// push[q] lists (successor, stack symbol) pairs.
	push map[int][]pushTarget
	// pop[(q, stack symbol)] lists successor states.
	pop map[popKey][]int
}

type popKey struct {
	state int
	gamma string
}

// pushTarget is the target of a push ε-transition: the successor state and
// the symbol pushed.
type pushTarget struct {
	state int
	gamma string
}

// New creates an empty PDA over the given alphabet with numStates states.
func New(alpha *alphabet.Alphabet, numStates int) *PDA {
	return &PDA{
		alpha:  alpha,
		num:    numStates,
		starts: make(map[int]bool),
		read:   make(map[[2]int][]int),
		push:   make(map[int][]pushTarget),
		pop:    make(map[popKey][]int),
	}
}

// NumStates returns the number of states.
func (p *PDA) NumStates() int { return p.num }

// AddStart marks states as initial.
func (p *PDA) AddStart(states ...int) *PDA {
	for _, q := range states {
		p.starts[q] = true
	}
	return p
}

// AddRead adds the input transition (from, sym, to); the stack is unchanged.
func (p *PDA) AddRead(from int, sym string, to int) *PDA {
	k := [2]int{from, p.alpha.MustIndex(sym)}
	p.read[k] = append(p.read[k], to)
	return p
}

// AddPush adds the ε-transition (from → to, push gamma).  Pushing ⊥ is not
// allowed, matching the paper's definition.
func (p *PDA) AddPush(from, to int, gamma string) *PDA {
	if gamma == Bottom {
		panic("pda: pushing the bottom symbol is not allowed")
	}
	p.push[from] = append(p.push[from], pushTarget{state: to, gamma: gamma})
	return p
}

// AddPop adds the ε-transition (from, gamma → to), popping gamma.
func (p *PDA) AddPop(from int, gamma string, to int) *PDA {
	k := popKey{from, gamma}
	p.pop[k] = append(p.pop[k], to)
	return p
}

// StartStates returns the initial states, sorted.
func (p *PDA) StartStates() []int {
	out := make([]int, 0, len(p.starts))
	for q := range p.starts {
		out = append(out, q)
	}
	sort.Ints(out)
	return out
}

// config is a state plus a stack (top at the end of the slice), encoded as a
// string key for memoization.
type config struct {
	state int
	stack string // each stack symbol terminated by '\x00'
}

func pushStack(stack, gamma string) string { return stack + gamma + "\x00" }

func topStack(stack string) (gamma string, rest string, ok bool) {
	if stack == "" {
		return "", "", false
	}
	// Find the start of the last symbol (the byte after the previous
	// terminator).
	i := len(stack) - 1 // points at the final '\x00'
	j := i - 1
	for j >= 0 && stack[j] != '\x00' {
		j--
	}
	return stack[j+1 : i], stack[:j+1], true
}

// Accepts reports whether the automaton accepts the word by empty stack.
// maxStack bounds the stack height explored (the default used by Accepts is
// len(word) + number of states + 2, which suffices for automata whose pushes
// are driven by the input, including every automaton constructed in this
// repository).
func (p *PDA) Accepts(word []string) bool {
	return p.acceptsWithin(word, len(word)+p.num+2)
}

// acceptsWithin is Accepts with an explicit bound on the stack height.
func (p *PDA) acceptsWithin(word []string, maxStack int) bool {
	syms := make([]int, len(word))
	for i, w := range word {
		s, ok := p.alpha.Index(w)
		if !ok {
			return false
		}
		syms[i] = s
	}
	// Breadth-first over (position, config), with ε-closure at each step.
	type item struct {
		pos int
		cfg config
	}
	seen := make(map[item]bool)
	var queue []item
	enqueue := func(pos int, c config) {
		it := item{pos, c}
		if !seen[it] {
			seen[it] = true
			queue = append(queue, it)
		}
	}
	for q := range p.starts {
		enqueue(0, config{state: q, stack: pushStack("", Bottom)})
	}
	for len(queue) > 0 {
		it := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		// ε-moves.
		for _, pg := range p.push[it.cfg.state] {
			if stackHeight(it.cfg.stack) < maxStack {
				enqueue(it.pos, config{state: pg.state, stack: pushStack(it.cfg.stack, pg.gamma)})
			}
		}
		if gamma, rest, ok := topStack(it.cfg.stack); ok {
			for _, to := range p.pop[popKey{it.cfg.state, gamma}] {
				enqueue(it.pos, config{state: to, stack: rest})
			}
		}
		if it.pos == len(word) {
			if it.cfg.stack == "" {
				return true
			}
			continue
		}
		// Input move.
		for _, to := range p.read[[2]int{it.cfg.state, syms[it.pos]}] {
			enqueue(it.pos+1, config{state: to, stack: it.cfg.stack})
		}
	}
	return false
}

func stackHeight(stack string) int {
	h := 0
	for i := 0; i < len(stack); i++ {
		if stack[i] == '\x00' {
			h++
		}
	}
	return h
}

// PushTransition is an exported view of a push ε-transition.
type PushTransition struct {
	From  int
	To    int
	Gamma string
}

// PopTransition is an exported view of a pop ε-transition.
type PopTransition struct {
	From  int
	Gamma string
	To    int
}

// Reads returns the successors of the read transition (q, sym); it returns
// nil when sym is not in the input alphabet.
func (p *PDA) Reads(q int, sym string) []int {
	s, ok := p.alpha.Index(sym)
	if !ok {
		return nil
	}
	return append([]int(nil), p.read[[2]int{q, s}]...)
}

// Pushes returns all push ε-transitions.
func (p *PDA) Pushes() []PushTransition {
	var out []PushTransition
	for from, targets := range p.push {
		for _, t := range targets {
			out = append(out, PushTransition{From: from, To: t.state, Gamma: t.gamma})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		if out[i].To != out[j].To {
			return out[i].To < out[j].To
		}
		return out[i].Gamma < out[j].Gamma
	})
	return out
}

// Pops returns all pop ε-transitions.
func (p *PDA) Pops() []PopTransition {
	var out []PopTransition
	for k, targets := range p.pop {
		for _, to := range targets {
			out = append(out, PopTransition{From: k.state, Gamma: k.gamma, To: to})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		if out[i].To != out[j].To {
			return out[i].To < out[j].To
		}
		return out[i].Gamma < out[j].Gamma
	})
	return out
}

// AddPopBottom adds the ε-transition (from, ⊥ → to): popping the bottom
// symbol is how automata accept by empty stack.
func (p *PDA) AddPopBottom(from, to int) *PDA {
	p.pop[popKey{from, Bottom}] = append(p.pop[popKey{from, Bottom}], to)
	return p
}
