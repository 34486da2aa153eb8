package nwa

// Determinization of nondeterministic nested word automata (Section 3.2):
// given a nondeterministic automaton with s states, an equivalent
// deterministic NWA with at most 2^(s²) linear states is constructed.
//
// A linear state is a summary set S ⊆ Q×Q (summarySet): the pairs (p, q)
// such that the automaton can be in p just after the last pending call, or p
// is initial when no call is pending, and some run takes it from p to q over
// the input read since.  The start state is the identity on the initial
// states, and a state is final when some (p, f) ∈ S has f final.  A
// hierarchical state is a pair (S, a) of the summary set and the symbol of a
// call.  At a call the linear successor is the identity on the call's linear
// targets from the second components of S, and (S, a) travels along the
// hierarchical edge.  At a matched return the stored pair is combined with
// the current summary set through the call and return relations; at a
// pending return (hierarchical state = the start state) the return relation
// is applied with the initial states as hierarchical states.  So there are
// at most 2^(s²) linear and 2^(s²)·|Σ| hierarchical states, and with the
// dead state at most 2^(s²)(|Σ|+1)+1 in all.

// Determinize builds an equivalent deterministic NWA by the subset-of-pairs
// construction over the states a worklist discovers.  Return transitions
// are filled in for every (discovered linear state, discovered hierarchical
// state) combination, which over-approximates the reachable combinations but
// never changes the language.
func (n *NNWA) Determinize() *DNWA {
	index := make(map[frame]int)
	var states []frame
	var linear, hier []int
	intern := func(f frame) int {
		if id, ok := index[f]; ok {
			return id
		}
		id := len(states)
		index[f] = id
		states = append(states, f)
		if f.sym < 0 {
			linear = append(linear, id)
		} else {
			hier = append(hier, id)
		}
		return id
	}
	start := intern(frame{n.initialSummary(), -1})
	hier = append(hier, start) // the hierarchical state of pending returns

	callT := make(map[callKey]callTarget)
	internT := make(map[callKey]int)
	returnT := make(map[returnKey]int)
	syms := n.alpha.Size()
	pair := func(lin, h int) {
		S, below := states[lin].S, states[h]
		for s := 0; s < syms; s++ {
			var next summarySet
			if below.sym < 0 {
				next = n.stepReturnPending(S, s)
			} else {
				next = n.stepReturnMatched(S, below.S, below.sym, s)
			}
			returnT[returnKey{lin, h, s}] = intern(frame{next, -1})
		}
	}

	// A worklist fixpoint: a new linear state gets its call and internal
	// rows and is paired with every hierarchical state processed so far, and
	// a new hierarchical state is paired with every linear state processed
	// so far, so each combination is paired once.
	for nl, nh := 0, 0; nl < len(linear) || nh < len(hier); {
		for ; nl < len(linear); nl++ {
			lin := linear[nl]
			S := states[lin].S
			for s := 0; s < syms; s++ {
				internT[callKey{lin, s}] = intern(frame{n.stepInternal(S, s), -1})
				callT[callKey{lin, s}] = callTarget{
					Linear: intern(frame{n.stepCall(S, s), -1}),
					Hier:   intern(frame{S, s}),
				}
			}
			for _, h := range hier[:nh] {
				pair(lin, h)
			}
		}
		for ; nh < len(hier); nh++ {
			for _, lin := range linear[:nl] {
				pair(lin, hier[nh])
			}
		}
	}

	// Assemble the deterministic automaton; the dead state follows the
	// discovered ones and no transition reaches it.
	d := &DNWA{
		alpha:   n.alpha,
		num:     len(states) + 1,
		start:   start,
		dead:    len(states),
		accept:  make([]bool, len(states)+1),
		callT:   callT,
		internT: internT,
		returnT: returnT,
	}
	for _, id := range linear {
		d.accept[id] = n.accepting(states[id].S)
	}
	return d
}
