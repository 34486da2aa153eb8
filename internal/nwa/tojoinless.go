package nwa

// ToJoinless: the conversion of Theorem 7.  Given a nondeterministic NWA A
// with s states, it builds a nondeterministic joinless NWA B with O(s²·|Σ|)
// states such that L(B) = L(A) on all nested words without pending calls
// (in particular on all well-matched words, which is the class on which the
// paper compares nested word automata with tree automata), and
// L(A) ⊆ L(B) in general.
//
// The construction follows the proof idea of Theorem 7 — linear states for
// the top-level spine and hierarchical "obligation" states (q, q̂) meaning
// "A is currently in q and must be in q̂ just before the return that closes
// the current matched call" — with two corrections needed to make the
// sketch sound:
//
//  1. linear-mode return transitions are derived only from A's
//     pending-return behaviour (transitions whose hierarchical state is
//     initial), and the states pushed on hierarchical edges are never
//     initial states, so the linear-mode return rule can only fire at
//     genuinely pending returns;
//  2. at a call, a linear state guesses explicitly whether the call is
//     matched (spawning an obligation state for the inside and an edge
//     state that resumes the spine after the matching return) or pending
//     (staying linear and pushing a dead state so that the guess is
//     falsified if a matching return does appear).
//
// The one behaviour the joinless model cannot express exactly is a matched
// guess at a call that turns out to be pending: the obligation state then
// survives to the end of the word and the joinless acceptance condition
// (which must double as the obligation check at returns) may accept
// spuriously.  Words without pending calls never exercise that case, which
// is why the equivalence above is stated for that class; DESIGN.md discusses
// the gap.

// joinlessLayout maps A's states into B's state blocks.
type joinlessLayout struct {
	s     int // number of A states
	sigma int // alphabet size
}

func (l joinlessLayout) linear(q int) int           { return q }
func (l joinlessLayout) obligation(x, want int) int { return l.s + x*l.s + want }
func (l joinlessLayout) topEdge(q2, symIdx int) int { return l.s + l.s*l.s + q2*l.sigma + symIdx }
func (l joinlessLayout) obligationEdge(x2, want, symIdx int) int {
	return l.s + l.s*l.s + l.s*l.sigma + (x2*l.s+want)*l.sigma + symIdx
}
func (l joinlessLayout) dead() int  { return l.s + l.s*l.s + l.s*l.sigma + l.s*l.s*l.sigma }
func (l joinlessLayout) total() int { return l.dead() + 1 }

// ToJoinless converts the nondeterministic NWA to a nondeterministic
// joinless NWA (see the package comment above for the exact guarantee).
func (a *NNWA) ToJoinless() *JNWA {
	lay := joinlessLayout{s: a.num, sigma: a.alpha.Size()}
	j := NewJNWA(a.alpha, lay.total())

	// Block typing: obligation states, obligation edges and the dead state
	// are hierarchical; linear copies and top edges are linear.
	for x := 0; x < lay.s; x++ {
		for want := 0; want < lay.s; want++ {
			j.MarkHierarchical(lay.obligation(x, want))
		}
	}
	for x2 := 0; x2 < lay.s; x2++ {
		for want := 0; want < lay.s; want++ {
			for s := 0; s < lay.sigma; s++ {
				j.MarkHierarchical(lay.obligationEdge(x2, want, s))
			}
		}
	}
	j.MarkHierarchical(lay.dead())

	j.AddStart(a.StartStates()...)
	for q := 0; q < a.num; q++ {
		if a.accept[q] {
			j.AddAccept(lay.linear(q))
		}
		j.AddAccept(lay.obligation(q, q))
	}

	starts := a.StartStates()
	isStart := make(map[int]bool, len(starts))
	for _, q := range starts {
		isStart[q] = true
	}

	// returnsByHier[qh] lists A's return transitions (q1, qh, ρ, q2) grouped
	// by their hierarchical state, used to enumerate matched guesses.
	type retInfo struct {
		q1, q2, symIdx int
	}
	returnsByHier := make(map[int][]retInfo)
	for k, targets := range a.returnR {
		for _, t := range targets {
			returnsByHier[k.hier] = append(returnsByHier[k.hier], retInfo{q1: k.lin, q2: t, symIdx: k.sym})
		}
	}

	// Internal transitions.
	for k, targets := range a.internR {
		sym := a.alpha.Symbol(k.sym)
		for _, to := range targets {
			// Linear copies simulate A directly.
			j.addInternal(lay.linear(k.state), sym, lay.linear(to))
			// Obligation copies carry the obligation along.
			for want := 0; want < lay.s; want++ {
				j.addInternal(lay.obligation(k.state, want), sym, lay.obligation(to, want))
			}
		}
	}

	// Pending returns on the top-level spine: only A's behaviour with an
	// initial hierarchical state is copied.
	for k, targets := range a.returnR {
		if !isStart[k.hier] {
			continue
		}
		sym := a.alpha.Symbol(k.sym)
		for _, to := range targets {
			j.AddReturn(lay.linear(k.lin), sym, lay.linear(to))
		}
	}

	// Call transitions.
	for k, targets := range a.callR {
		sym := a.alpha.Symbol(k.sym)
		for _, t := range targets {
			// Pending guess from a linear copy: stay linear, push the dead
			// state so a matching return falsifies the guess.
			j.AddCall(lay.linear(k.state), sym, lay.linear(t.Linear), lay.dead())
			// Matched guess: additionally pick the return transition that
			// will close the pair.
			for _, ret := range returnsByHier[t.Hier] {
				// From a linear copy: the inside is handled by an obligation
				// copy and the spine resumes as a linear copy after the
				// return.
				j.AddCall(lay.linear(k.state), sym,
					lay.obligation(t.Linear, ret.q1), lay.topEdge(ret.q2, ret.symIdx))
				// From an obligation copy: the obligation is carried across
				// the pair by the edge state.
				for want := 0; want < lay.s; want++ {
					j.AddCall(lay.obligation(k.state, want), sym,
						lay.obligation(t.Linear, ret.q1), lay.obligationEdge(ret.q2, want, ret.symIdx))
				}
			}
		}
	}

	// Edge states fire exactly once, at the matching return, on the guessed
	// return symbol.
	for q2 := 0; q2 < lay.s; q2++ {
		for s := 0; s < lay.sigma; s++ {
			sym := a.alpha.Symbol(s)
			j.AddReturn(lay.topEdge(q2, s), sym, lay.linear(q2))
			for want := 0; want < lay.s; want++ {
				j.AddReturn(lay.obligationEdge(q2, want, s), sym, lay.obligation(q2, want))
			}
		}
	}

	return j
}

// JoinlessStateBound returns the O(s²·|Σ|) state count of the automaton
// produced by ToJoinless for an NWA with s states over an alphabet of the
// given size, reported by experiment E8.
func JoinlessStateBound(s, sigma int) int {
	return joinlessLayout{s: s, sigma: sigma}.total()
}
