package nwa

// Weak nested word automata (Section 3.2, Theorem 1): an NWA is weak if the
// hierarchical component of its call-transition function simply propagates
// the current state, δ^h_c(q, a) = q.  Weak automata capture all regular
// languages of nested words: any NWA with s states has an equivalent weak
// NWA whose states pair A's state with the symbol labelling the call-parent
// of the current position.
//
// Implementation note.  The paper's construction uses s·|Σ| states, choosing
// an arbitrary symbol a0 for positions whose call-parent is the virtual
// position 0 (top level).  That conflation is harmless on well-matched
// words, but on a word with *pending returns* the constructed automaton
// would apply δ^h_c(q0, a0) where the original automaton uses the initial
// state q0 itself, which can differ.  To be correct on all of NW(Σ) we keep
// an explicit "top level" marker in addition to the |Σ| symbols, giving
// s·(|Σ|+1) states; on well-matched words the two constructions coincide.

// IsWeak reports whether the deterministic automaton is weak: for every
// state q and symbol a, δ^h_c(q, a) = q.
func (d *DNWA) IsWeak() bool {
	for q := 0; q < d.num; q++ {
		for s := 0; s < d.alpha.Size(); s++ {
			_, hier := d.StepCall(q, d.alpha.Symbol(s))
			if hier != q {
				return false
			}
		}
	}
	return true
}

// ToWeak implements the construction of Theorem 1: given an NWA A with s
// states it builds a weak NWA B with L(B) = L(A) and at most s·(|Σ|+1)
// states (see the package note above).  A's dead state is a rejecting sink
// whatever call-parent it is paired with, so every pair (dead, a) is B's
// own dead state, and B has (s-1)·(|Σ|+1) + 1 states.
func (d *DNWA) ToWeak() *DNWA {
	sigma := d.alpha.Size()
	// Symbol component: 0..sigma-1 are alphabet symbols (the call-parent's
	// label); `top` marks positions whose call-parent is the virtual
	// position 0.
	top := sigma
	comps := sigma + 1
	dead := (d.num - 1) * comps // the builder appends its dead state here
	enc := func(q, a int) int {
		switch {
		case q == d.dead:
			return dead
		case q > d.dead:
			q--
		}
		return q*comps + a
	}

	b := NewDNWABuilder(d.alpha, dead)
	b.SetStart(enc(d.start, top))
	for q := 0; q < d.num; q++ {
		if d.accept[q] {
			for a := 0; a <= sigma; a++ {
				b.SetAccept(enc(q, a))
			}
		}
	}
	for q := 0; q < d.num; q++ {
		if q == d.dead {
			continue // the builder's dead state already absorbs
		}
		for a := 0; a <= sigma; a++ {
			from := enc(q, a)
			for s := 0; s < sigma; s++ {
				sym := d.alpha.Symbol(s)
				// δ'_i((q,a), b) = (δ_i(q,b), a): internal moves keep the
				// call-parent.
				b.Internal(from, sym, enc(d.StepInternal(q, sym), a))
				// δ'_c((q,a), b) = ((δ^l_c(q,b), b), (q,a)): the linear
				// successor's call-parent is the call just read, and the
				// hierarchical edge carries the current state unchanged,
				// which is what makes B weak.
				lin, _ := d.StepCall(q, sym)
				b.Call(from, sym, enc(lin, s), from)
			}
		}
	}
	// Return transitions.  The current linear state (q, a) tells us the
	// symbol a of the matched call (its call-parent); the hierarchical state
	// (q', b) is A's state just before that call, so δ^h_c(q', a) recovers
	// the hierarchical state A would have propagated.  When a = top the
	// return is pending and A uses its initial state as the hierarchical
	// state.
	for q := 0; q < d.num; q++ {
		if q == d.dead {
			continue
		}
		for a := 0; a <= sigma; a++ {
			lin := enc(q, a)
			for qp := 0; qp < d.num; qp++ {
				if qp == d.dead {
					continue // a dead hierarchical state means a dead linear one
				}
				for bcomp := 0; bcomp <= sigma; bcomp++ {
					hier := enc(qp, bcomp)
					for c := 0; c < sigma; c++ {
						cSym := d.alpha.Symbol(c)
						var hierOfA int
						if a == top {
							// Pending return: A's hierarchical state is q0.
							hierOfA = d.start
						} else {
							_, hierOfA = d.StepCall(qp, d.alpha.Symbol(a))
						}
						b.Return(lin, hier, cSym, enc(d.StepReturn(q, hierOfA, cSym), bcomp))
					}
				}
			}
		}
	}
	return b.Build()
}
