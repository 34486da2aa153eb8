// Package nwa implements nested word automata (NWAs), the primary
// contribution of "Marrying Words and Trees" (Alur, PODS 2007), Section 3.
//
// The package provides:
//
//   - deterministic NWAs (type DNWA) with linear-time membership,
//   - nondeterministic NWAs (type NNWA) with polynomial membership and
//     determinization, and emptiness and equivalence of deterministic ones,
//   - boolean and word/tree closure constructions,
//   - the restricted classes studied in the paper: weak automata
//     (Theorem 1), flat automata (Theorem 2), bottom-up automata
//     (Theorem 4), and joinless / top-down automata (Theorems 6–8),
//     together with the conversion constructions of those theorems.
//
// States are dense integers 0..NumStates-1.  Transition functions are kept
// in maps keyed by (state, symbol) — or (state, state, symbol) for return
// transitions — with an implicit absorbing dead state completing partial
// automata, so that very large constructed automata (for example the
// s^s-state bottom-up automata of Theorem 4) only pay for the transitions
// they actually define.
package nwa

import (
	"fmt"

	"repro/internal/alphabet"
	"repro/internal/nestedword"
)

// callKey / internalKey index call and internal transitions; returnKey
// indexes return transitions by (linear state, hierarchical state, symbol).
type callKey struct {
	state int
	sym   int
}

type returnKey struct {
	lin  int
	hier int
	sym  int
}

// callTarget is the pair (linear successor, hierarchical successor) produced
// by a call transition.
type callTarget struct {
	Linear int
	Hier   int
}

// DNWA is a deterministic nested word automaton
// (Q, q0, F, δc, δi, δr) as in Section 3.1.  The automaton is complete:
// transitions not present in the maps go to the dead state, a non-accepting
// absorbing state included in NumStates.
type DNWA struct {
	alpha   *alphabet.Alphabet
	num     int // number of states, including the dead state
	start   int
	dead    int
	accept  []bool
	callT   map[callKey]callTarget
	internT map[callKey]int
	returnT map[returnKey]int
}

// DNWABuilder assembles a deterministic NWA.
type DNWABuilder struct {
	a *DNWA
}

// NewDNWABuilder creates a builder for a DNWA over the given alphabet with
// numStates user states (a dead state is appended automatically).  The start
// state defaults to 0.
func NewDNWABuilder(alpha *alphabet.Alphabet, numStates int) *DNWABuilder {
	d := &DNWA{
		alpha:   alpha,
		num:     numStates + 1,
		start:   0,
		dead:    numStates,
		accept:  make([]bool, numStates+1),
		callT:   make(map[callKey]callTarget),
		internT: make(map[callKey]int),
		returnT: make(map[returnKey]int),
	}
	return &DNWABuilder{a: d}
}

// SetStart sets the initial state q0.
func (b *DNWABuilder) SetStart(q int) *DNWABuilder { b.a.start = q; return b }

// SetAccept marks states as final.
func (b *DNWABuilder) SetAccept(states ...int) *DNWABuilder {
	for _, q := range states {
		b.a.accept[q] = true
	}
	return b
}

// Call sets δc(from, sym) = (linear, hier).
func (b *DNWABuilder) Call(from int, sym string, linear, hier int) *DNWABuilder {
	checkStates(b.a.num, from, linear, hier)
	b.a.callT[callKey{from, b.a.alpha.MustIndex(sym)}] = callTarget{Linear: linear, Hier: hier}
	return b
}

// Internal sets δi(from, sym) = to.
func (b *DNWABuilder) Internal(from int, sym string, to int) *DNWABuilder {
	checkStates(b.a.num, from, to)
	b.a.internT[callKey{from, b.a.alpha.MustIndex(sym)}] = to
	return b
}

// Return sets δr(lin, hier, sym) = to.
func (b *DNWABuilder) Return(lin, hier int, sym string, to int) *DNWABuilder {
	checkStates(b.a.num, lin, hier, to)
	b.a.returnT[returnKey{lin, hier, b.a.alpha.MustIndex(sym)}] = to
	return b
}

// Build returns the completed automaton.
func (b *DNWABuilder) Build() *DNWA { return b.a }

// checkStates panics unless every state lies in [0, num).
func checkStates(num int, states ...int) {
	for _, q := range states {
		if q < 0 || q >= num {
			panic(fmt.Sprintf("nwa: state %d out of range [0,%d)", q, num))
		}
	}
}

// Alphabet returns the automaton's alphabet.
func (d *DNWA) Alphabet() *alphabet.Alphabet { return d.alpha }

// NumStates returns the number of states including the dead state.
func (d *DNWA) NumStates() int { return d.num }

// Start returns the initial state q0.
func (d *DNWA) Start() int { return d.start }

// Dead returns the absorbing dead state.
func (d *DNWA) Dead() int { return d.dead }

// IsAccepting reports whether q ∈ F.
func (d *DNWA) IsAccepting(q int) bool { return q >= 0 && q < d.num && d.accept[q] }

// StepCall returns δc(q, sym) = (linear, hier); unknown symbols and missing
// transitions go to the dead state.
func (d *DNWA) StepCall(q int, sym string) (linear, hier int) {
	s, ok := d.alpha.Index(sym)
	if !ok {
		return d.dead, d.dead
	}
	return d.stepCall(q, s)
}

// StepInternal returns δi(q, sym).
func (d *DNWA) StepInternal(q int, sym string) int {
	s, ok := d.alpha.Index(sym)
	if !ok {
		return d.dead
	}
	return d.stepInternal(q, s)
}

// StepReturn returns δr(lin, hier, sym).
func (d *DNWA) StepReturn(lin, hier int, sym string) int {
	s, ok := d.alpha.Index(sym)
	if !ok {
		return d.dead
	}
	return d.stepReturn(lin, hier, s)
}

// stepCall, stepInternal and stepReturn are the transition functions on
// symbol IDs; missing transitions go to the dead state.
func (d *DNWA) stepCall(q, s int) (linear, hier int) {
	if t, ok := d.callT[callKey{q, s}]; ok {
		return t.Linear, t.Hier
	}
	return d.dead, d.dead
}

func (d *DNWA) stepInternal(q, s int) int {
	if t, ok := d.internT[callKey{q, s}]; ok {
		return t
	}
	return d.dead
}

func (d *DNWA) stepReturn(lin, hier, s int) int {
	if t, ok := d.returnT[returnKey{lin, hier, s}]; ok {
		return t
	}
	return d.dead
}

// The StateGraph view of a DNWA: one edge per (state, symbol), dead-state
// targets included, since the automaton is complete.

// NumSymbols returns the alphabet size.
func (d *DNWA) NumSymbols() int { return d.alpha.Size() }

// StartStates returns the singleton initial-state set {q0}.
func (d *DNWA) StartStates() []int { return []int{d.start} }

// EachCallEdge calls f with δc(q, sym).
func (d *DNWA) EachCallEdge(q, sym int, f func(linear, hier int)) { f(d.stepCall(q, sym)) }

// EachInternalEdge calls f with δi(q, sym).
func (d *DNWA) EachInternalEdge(q, sym int, f func(to int)) { f(d.stepInternal(q, sym)) }

// EachReturnEdge calls f with δr(lin, hier, sym).
func (d *DNWA) EachReturnEdge(lin, hier, sym int, f func(to int)) { f(d.stepReturn(lin, hier, sym)) }

// Accepts reports whether the automaton accepts the nested word: the last
// linear state of the unique run is final.  Time is linear in the length of
// the word and space is proportional to its depth.
func (d *DNWA) Accepts(n *nestedword.NestedWord) bool {
	l := n.Len()
	q := d.start
	var stack []int
	for i := 0; i < l; i++ {
		p := n.At(i)
		switch p.Kind {
		case nestedword.Internal:
			q = d.StepInternal(q, p.Symbol)
		case nestedword.Call:
			lin, h := d.StepCall(q, p.Symbol)
			stack = append(stack, h)
			q = lin
		case nestedword.Return:
			h := d.start
			if len(stack) > 0 {
				h = stack[len(stack)-1]
				stack = stack[:len(stack)-1]
			}
			q = d.StepReturn(q, h, p.Symbol)
		}
	}
	return d.accept[q]
}

// EachCall calls f for every defined call transition δc(state, sym) =
// (linear, hier), with sym given as an alphabet index.  Transitions not
// visited go to the dead state.  It is the iteration hook used by
// query.Compile to build dense transition tables.
func (d *DNWA) EachCall(f func(state, sym, linear, hier int)) {
	for k, t := range d.callT {
		f(k.state, k.sym, t.Linear, t.Hier)
	}
}

// EachInternal calls f for every defined internal transition
// δi(state, sym) = to, with sym given as an alphabet index.
func (d *DNWA) EachInternal(f func(state, sym, to int)) {
	for k, t := range d.internT {
		f(k.state, k.sym, t)
	}
}

// EachReturn calls f for every defined return transition
// δr(lin, hier, sym) = to, with sym given as an alphabet index.
func (d *DNWA) EachReturn(f func(lin, hier, sym, to int)) {
	for k, t := range d.returnT {
		f(k.lin, k.hier, k.sym, t)
	}
}

// NumReturnTransitions returns the number of explicitly defined return
// transitions (the rest go to the dead state).  query.Compile uses it as a
// capacity hint for its return entries.
func (d *DNWA) NumReturnTransitions() int { return len(d.returnT) }

// ToNondeterministic converts the deterministic automaton to an equivalent
// nondeterministic one.
//
//nwvet:oracle TestRunnerOutOfAlphabet, TestBundleAddErrors and TestRegisterErrors build their NNWA inputs with it
func (d *DNWA) ToNondeterministic() *NNWA {
	n := NewNNWA(d.alpha, d.num)
	n.AddStart(d.start)
	for q := 0; q < d.num; q++ {
		if d.accept[q] {
			n.AddAccept(q)
		}
	}
	for s := 0; s < d.alpha.Size(); s++ {
		sym := d.alpha.Symbol(s)
		for q := 0; q < d.num; q++ {
			lin, hier := d.stepCall(q, s)
			n.AddCall(q, sym, lin, hier)
			n.AddInternal(q, sym, d.stepInternal(q, s))
		}
		for lin := 0; lin < d.num; lin++ {
			for hier := 0; hier < d.num; hier++ {
				n.AddReturn(lin, hier, sym, d.stepReturn(lin, hier, s))
			}
		}
	}
	return n
}

// Complement returns a deterministic NWA accepting the complement language
// NW(Σ) \ L(d): deterministic automata are complemented by flipping the
// final states (Section 3.2, closure under complementation).
func (d *DNWA) Complement() *DNWA {
	c := &DNWA{
		alpha:   d.alpha,
		num:     d.num,
		start:   d.start,
		dead:    d.dead,
		accept:  make([]bool, d.num),
		callT:   d.callT,
		internT: d.internT,
		returnT: d.returnT,
	}
	for q := 0; q < d.num; q++ {
		c.accept[q] = !d.accept[q]
	}
	return c
}

// product builds the synchronous product of two deterministic NWAs over the
// same alphabet, with acceptance combined by the given boolean function.
func product(a, b *DNWA, combine func(bool, bool) bool) *DNWA {
	if !a.alpha.Equal(b.alpha) {
		panic("nwa: product of automata over different alphabets")
	}
	nb := b.num
	pair := func(qa, qb int) int { return qa*nb + qb }
	p := &DNWA{
		alpha:   a.alpha,
		num:     a.num * b.num,
		start:   pair(a.start, b.start),
		dead:    pair(a.dead, b.dead),
		accept:  make([]bool, a.num*b.num),
		callT:   make(map[callKey]callTarget),
		internT: make(map[callKey]int),
		returnT: make(map[returnKey]int),
	}
	for qa := 0; qa < a.num; qa++ {
		for qb := 0; qb < b.num; qb++ {
			p.accept[pair(qa, qb)] = combine(a.accept[qa], b.accept[qb])
		}
	}
	for s := 0; s < a.alpha.Size(); s++ {
		for qa := 0; qa < a.num; qa++ {
			for qb := 0; qb < b.num; qb++ {
				q := pair(qa, qb)
				la, ha := a.stepCall(qa, s)
				lb, hb := b.stepCall(qb, s)
				p.callT[callKey{q, s}] = callTarget{Linear: pair(la, lb), Hier: pair(ha, hb)}
				p.internT[callKey{q, s}] = pair(a.stepInternal(qa, s), b.stepInternal(qb, s))
			}
		}
		// Return transitions: only pairs of (linear, hierarchical) states
		// that can actually co-occur are strictly needed, but enumerating
		// all pairs keeps the construction simple and matches the textbook
		// product.
		for la := 0; la < a.num; la++ {
			for lb := 0; lb < b.num; lb++ {
				for ha := 0; ha < a.num; ha++ {
					for hb := 0; hb < b.num; hb++ {
						p.returnT[returnKey{pair(la, lb), pair(ha, hb), s}] =
							pair(a.stepReturn(la, ha, s), b.stepReturn(lb, hb, s))
					}
				}
			}
		}
	}
	return p
}

// Intersect returns a deterministic NWA for L(a) ∩ L(b).
func Intersect(a, b *DNWA) *DNWA {
	return product(a, b, func(x, y bool) bool { return x && y })
}

// Union returns a deterministic NWA for L(a) ∪ L(b).
func Union(a, b *DNWA) *DNWA {
	return product(a, b, func(x, y bool) bool { return x || y })
}

// IsEmpty reports whether L(d) = ∅ using the summary-based reachability
// check described in Section 3.2 (cubic in the number of states).
func (d *DNWA) IsEmpty() bool { return isEmpty(d) }

// Equivalent reports whether two deterministic NWAs over the same alphabet
// accept the same language: one summary closure decides that their
// symmetric difference, a virtual product, is empty.
func Equivalent(a, b *DNWA) bool {
	if !a.alpha.Equal(b.alpha) {
		panic("nwa: equivalence check over different alphabets")
	}
	return isEmpty(&symmetricDifference{a: a, b: b})
}
