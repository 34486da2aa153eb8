package nwa

// This file exports the reachability half of the emptiness machinery
// (emptiness.go, Section 3.2) to other packages, most notably the compiled-
// artifact verifier in internal/query: `nwtool vet` runs the same
// summary-closure analysis over the flat tables of a serialized bundle that
// the emptiness check runs over DNWAs, NNWAs and their virtual products, so
// a bundle's dead states are found by the paper's own algorithm rather than
// a second implementation.

// StateGraph is the one automaton view the analysis takes: DNWA, NNWA, the
// virtual symmetric-difference product of the equivalence check and query's
// compiled tables all implement it.  Symbols are dense IDs 0..NumSymbols()-1 (a
// compiled automaton includes its out-of-alphabet column), and edges are
// enumerated through callbacks so implementations over maps or flat tables
// need not materialize successor slices.
type StateGraph interface {
	// NumStates returns the number of states.
	NumStates() int
	// NumSymbols returns the number of symbol columns, including any
	// out-of-alphabet column.
	NumSymbols() int
	// StartStates returns the initial states.
	StartStates() []int
	// IsAccepting reports whether q is a final state.
	IsAccepting(q int) bool
	// EachCallEdge calls f for every call transition of (q, sym).
	EachCallEdge(q, sym int, f func(linear, hier int))
	// EachInternalEdge calls f for every internal transition of (q, sym).
	EachInternalEdge(q, sym int, f func(to int))
	// EachReturnEdge calls f for every return transition of (lin, hier, sym).
	EachReturnEdge(lin, hier, sym int, f func(to int))
}

// ReachableStates runs the summary/reachability closure of the emptiness
// analysis over the graph and reports, per state, whether some nested word
// (pending calls and returns included) takes the automaton from an initial
// state to it as a linear state.  States used only as hierarchical targets
// are not linearly reachable; see HierarchicalTargets.
func ReachableStates(g StateGraph) []bool {
	an := analyze(g)
	reach := make([]bool, g.NumStates())
	for q := range an.reachB {
		if q >= 0 && q < len(reach) {
			reach[q] = true
		}
	}
	return reach
}

// HierarchicalTargets reports, per state, whether some call transition out of
// a state marked true in from uses it as the hierarchical target.  Combined
// with ReachableStates it separates truly unreachable states from states that
// only ever travel along hierarchical edges (the markers of compiled path
// queries, say).
func HierarchicalTargets(g StateGraph, from []bool) []bool {
	used := make([]bool, g.NumStates())
	for q := 0; q < g.NumStates(); q++ {
		if !from[q] {
			continue
		}
		for sym := 0; sym < g.NumSymbols(); sym++ {
			g.EachCallEdge(q, sym, func(linear, hier int) {
				if hier >= 0 && hier < len(used) {
					used[hier] = true
				}
			})
		}
	}
	return used
}

// CoaccessibleStates reports, per state q, whether an accepting state is
// reachable from q in the projected transition digraph: call edges move to
// their linear target, internal edges to their target, and a return edge
// (lin, hier, sym) → to is usable from lin when hierAvail[hier] is true
// (pass the HierarchicalTargets of the reachable set, plus the start states
// for pending returns; nil allows every hierarchical component).  Dropping
// the stack discipline makes this an over-approximation of true
// coaccessibility — the safe polarity for dead-state warnings, since a
// state it calls dead really cannot reach acceptance by any run whose stack
// holds only supplied hierarchical states.
func CoaccessibleStates(g StateGraph, hierAvail []bool) []bool {
	num := g.NumStates()
	co := make([]bool, num)
	queue := make([]int, 0, num)
	for q := 0; q < num; q++ {
		if g.IsAccepting(q) {
			co[q] = true
			queue = append(queue, q)
		}
	}
	// Reverse adjacency of the projected digraph, built once.
	preds := make([][]int32, num)
	addEdge := func(from, to int) {
		if to >= 0 && to < num && from >= 0 && from < num {
			preds[to] = append(preds[to], int32(from))
		}
	}
	for q := 0; q < num; q++ {
		for sym := 0; sym < g.NumSymbols(); sym++ {
			g.EachCallEdge(q, sym, func(linear, _ int) { addEdge(q, linear) })
			g.EachInternalEdge(q, sym, func(to int) { addEdge(q, to) })
		}
	}
	for lin := 0; lin < num; lin++ {
		for hier := 0; hier < num; hier++ {
			if hierAvail != nil && !hierAvail[hier] {
				continue
			}
			for sym := 0; sym < g.NumSymbols(); sym++ {
				g.EachReturnEdge(lin, hier, sym, func(to int) { addEdge(lin, to) })
			}
		}
	}
	for len(queue) > 0 {
		q := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, p := range preds[q] {
			if !co[p] {
				co[p] = true
				queue = append(queue, int(p))
			}
		}
	}
	return co
}
