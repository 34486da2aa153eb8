package nwa

import (
	"sort"
)

// Determinization of nondeterministic nested word automata (Section 3.2):
// given a nondeterministic automaton with s states, an equivalent
// deterministic NWA with at most 2^(s²) summary components is constructed.
//
// The deterministic states are pairs (S, R) where
//
//   - S ⊆ Q×Q is the set of summary pairs (q, q') such that the automaton
//     has a run from q to q' over the portion of the input read since the
//     position following the last pending call (or since the beginning of
//     the word when no call is pending), and
//   - R ⊆ Q is the set of states reachable from an initial state over the
//     entire prefix read so far.
//
// At a call the automaton propagates the current pair together with the call
// symbol along the hierarchical edge, resets S to the identity and advances
// R through the linear component of the call relation.  At a matched return
// the stored pair is combined with the current pair through the call and
// return relations; at a pending return (hierarchical state = initial state
// of the deterministic automaton) the return relation is applied with the
// nondeterministic automaton's initial states as hierarchical states.

// detKey is the canonical encoding of a deterministic state: the sorted
// summary pairs, the sorted reachable set, and the call symbol index for
// hierarchical marker states (-1 for linear states and the initial state).
type detKey string

func encodeSimulation(sim simulationState, symIdx int) detKey {
	pairs := make([]statePair, 0, len(sim.S))
	for p := range sim.S {
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].from != pairs[j].from {
			return pairs[i].from < pairs[j].from
		}
		return pairs[i].to < pairs[j].to
	})
	reach := make([]int, 0, len(sim.R))
	for q := range sim.R {
		reach = append(reach, q)
	}
	sort.Ints(reach)
	buf := make([]byte, 0, 8*len(pairs)+4*len(reach)+8)
	put := func(v int) {
		buf = append(buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	put(symIdx)
	put(len(pairs))
	for _, p := range pairs {
		put(p.from)
		put(p.to)
	}
	for _, q := range reach {
		put(q)
	}
	return detKey(buf)
}

// Determinize builds an equivalent deterministic NWA by the subset-of-pairs
// construction.  Only states reachable in the exploration are created; the
// return transitions are filled in for every (discovered linear state,
// discovered hierarchical state) combination, which over-approximates the
// reachable combinations but never changes the language.
func (n *NNWA) Determinize() *DNWA {
	type detState struct {
		sim simulationState
		sym int // call symbol index for hierarchical markers, -1 otherwise
	}
	index := make(map[detKey]int)
	var states []detState

	intern := func(sim simulationState, sym int) int {
		key := encodeSimulation(sim, sym)
		if id, ok := index[key]; ok {
			return id
		}
		id := len(states)
		index[key] = id
		states = append(states, detState{sim: sim, sym: sym})
		return id
	}

	start := intern(n.initialSimulation(), -1)

	// Deterministic transitions in the DNWA's own maps, keyed by the
	// deterministic state numbering and symbol ID.
	callT := make(map[callKey]callTarget)
	internT := make(map[callKey]int)
	returnT := make(map[returnKey]int)

	// Exploration: linear states and hierarchical marker states are both
	// discovered; return transitions combine every linear state with every
	// hierarchical marker (plus the initial state for pending returns).
	linearSeen := map[int]bool{start: true}
	hierSeen := map[int]bool{start: true}
	linearList := []int{start}
	hierList := []int{start}
	processedReturn := make(map[[2]int]bool)

	for iLin := 0; iLin < len(linearList); iLin++ {
		lin := linearList[iLin]
		sim := states[lin].sim
		for s := 0; s < n.alpha.Size(); s++ {
			// Internal.
			next := intern(n.stepInternal(sim, s), -1)
			internT[callKey{lin, s}] = next
			if !linearSeen[next] {
				linearSeen[next] = true
				linearList = append(linearList, next)
			}
			// Call: linear successor plus hierarchical marker.
			linNext := intern(n.stepCall(sim, s), -1)
			hierNext := intern(sim, s)
			callT[callKey{lin, s}] = callTarget{Linear: linNext, Hier: hierNext}
			if !linearSeen[linNext] {
				linearSeen[linNext] = true
				linearList = append(linearList, linNext)
			}
			if !hierSeen[hierNext] {
				hierSeen[hierNext] = true
				hierList = append(hierList, hierNext)
			}
		}
		// Return transitions for this linear state against every known
		// hierarchical state (including combinations discovered later: the
		// outer loop below re-scans, so iterate hierList via index and
		// re-visit when it grows).
		for iH := 0; iH < len(hierList); iH++ {
			hier := hierList[iH]
			if processedReturn[[2]int{lin, hier}] {
				continue
			}
			processedReturn[[2]int{lin, hier}] = true
			for s := 0; s < n.alpha.Size(); s++ {
				var nextSim simulationState
				if states[hier].sym < 0 {
					// Hierarchical state without a call marker: this is the
					// initial state, i.e. a pending return.
					nextSim = n.stepReturnPending(sim, s)
				} else {
					nextSim = n.stepReturnMatched(sim, states[hier].sim, states[hier].sym, s)
				}
				next := intern(nextSim, -1)
				returnT[returnKey{lin, hier, s}] = next
				if !linearSeen[next] {
					linearSeen[next] = true
					linearList = append(linearList, next)
				}
			}
		}
		// If new hierarchical states were discovered after this linear state
		// was processed, the pairs are picked up when those hierarchical
		// states cause new linear states, or on the final completion pass
		// below.
	}

	// Completion pass: make sure every (linear, hier) combination has its
	// return transitions (the main loop may have missed pairs whose
	// hierarchical state was discovered after the linear state was
	// processed).
	for changed := true; changed; {
		changed = false
		for iLin := 0; iLin < len(linearList); iLin++ {
			lin := linearList[iLin]
			sim := states[lin].sim
			for iH := 0; iH < len(hierList); iH++ {
				hier := hierList[iH]
				if processedReturn[[2]int{lin, hier}] {
					continue
				}
				processedReturn[[2]int{lin, hier}] = true
				changed = true
				for s := 0; s < n.alpha.Size(); s++ {
					var nextSim simulationState
					if states[hier].sym < 0 {
						nextSim = n.stepReturnPending(sim, s)
					} else {
						nextSim = n.stepReturnMatched(sim, states[hier].sim, states[hier].sym, s)
					}
					next := intern(nextSim, -1)
					returnT[returnKey{lin, hier, s}] = next
					if !linearSeen[next] {
						linearSeen[next] = true
						linearList = append(linearList, next)
						// New linear states need their call/internal rows too;
						// simplest is to restart the outer pass.
					}
				}
			}
			for s := 0; s < n.alpha.Size(); s++ {
				if _, ok := internT[callKey{lin, s}]; ok {
					continue
				}
				changed = true
				next := intern(n.stepInternal(sim, s), -1)
				internT[callKey{lin, s}] = next
				if !linearSeen[next] {
					linearSeen[next] = true
					linearList = append(linearList, next)
				}
				linNext := intern(n.stepCall(sim, s), -1)
				hierNext := intern(sim, s)
				callT[callKey{lin, s}] = callTarget{Linear: linNext, Hier: hierNext}
				if !linearSeen[linNext] {
					linearSeen[linNext] = true
					linearList = append(linearList, linNext)
				}
				if !hierSeen[hierNext] {
					hierSeen[hierNext] = true
					hierList = append(hierList, hierNext)
				}
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
	for id, st := range states {
		if st.sym >= 0 {
			continue // hierarchical markers are never accepting
		}
		for q := range st.sim.R {
			if n.accept[q] {
				d.accept[id] = true
				break
			}
		}
	}
	return d
}

// complement returns a deterministic NWA accepting NW(Σ) \ L(n), obtained by
// determinizing and flipping the final states (Section 3.2).
func (n *NNWA) complement() *DNWA { return n.Determinize().Complement() }

// unionN returns a nondeterministic NWA accepting L(a) ∪ L(b): the disjoint
// union of the two automata.
func unionN(a, b *NNWA) *NNWA {
	if !a.alpha.Equal(b.alpha) {
		panic("nwa: union of automata over different alphabets")
	}
	u := NewNNWA(a.alpha, a.num+b.num)
	off := a.num
	for q := range a.starts {
		u.AddStart(q)
	}
	for q := range b.starts {
		u.AddStart(q + off)
	}
	for q := range a.accept {
		u.AddAccept(q)
	}
	for q := range b.accept {
		u.AddAccept(q + off)
	}
	copyTransitions := func(src *NNWA, shift int) {
		for k, targets := range src.callR {
			for _, t := range targets {
				u.AddCall(k.state+shift, src.alpha.Symbol(k.sym), t.Linear+shift, t.Hier+shift)
			}
		}
		for k, targets := range src.internR {
			for _, t := range targets {
				u.AddInternal(k.state+shift, src.alpha.Symbol(k.sym), t+shift)
			}
		}
		for k, targets := range src.returnR {
			for _, t := range targets {
				u.AddReturn(k.lin+shift, k.hier+shift, src.alpha.Symbol(k.sym), t+shift)
			}
		}
	}
	copyTransitions(a, 0)
	copyTransitions(b, off)
	return u
}
