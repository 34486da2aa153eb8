package nwa

import (
	"repro/internal/alphabet"
	"repro/internal/nestedword"
)

// The emptiness check follows Section 3.2: it computes summaries of runs
// over well-matched nested words (pairs (c, q) such that some well-matched
// word takes context state c to q), then closes the set of reachable states
// under summaries, pending-return steps, and pending-call steps, exploiting
// the fact that in any nested word all pending returns precede all pending
// calls.  Contexts are created lazily, so only the reachable part of the
// automaton is ever touched; the worst case is cubic in the number of
// states, matching the bound stated in the paper.
//
// The closure runs over a StateGraph, so symbols are the integer column IDs
// 0..NumSymbols()-1.  Every derived fact records how it was derived, so a
// witness nested word can be reconstructed when the language is non-empty;
// the witness maps the recorded IDs back to labels through the caller's
// alphabet.

// statePair is a summary (from, to): some run takes the automaton from
// `from` to `to` over a stretch of the input.
type statePair struct {
	from int
	to   int
}

type summaryReason struct {
	kind    string // "base", "internal", "callreturn"
	prev    statePair
	sym     int
	callSym int
	inner   statePair
	retSym  int
}

type reachReason struct {
	kind string // "start", "phaseA", "summary", "pendingreturn", "pendingcall"
	prev int
	pair statePair
	sym  int
}

// callEdgeInfo records that the summary outer exists and that a call
// transition on callSym from outer.to has hierarchical target hier; the map
// key under which the edge is stored is the call's linear target (the inner
// context).
type callEdgeInfo struct {
	outer   statePair
	callSym int
	hier    int
}

// callReturnKey names what a call–return closure depends on: the outer
// summary's context, the call's hierarchical target, and the inner
// summary's end state.  Two call edges and inner summaries that agree on
// all three close onto the same summaries.
type callReturnKey struct {
	from, hier, inner int
}

// denseSummaryLimit is the largest state count whose summary pairs are
// tracked in an n×n bitmap (8 MiB at the limit) in front of the reason
// map: nearly every closure step derives a summary that already exists, and
// a bit test answers that without hashing.
const denseSummaryLimit = 8192

type workItem struct {
	kind string // "summary", "reachA", "reachB"
	pair statePair
	q    int
}

type analysis struct {
	g               StateGraph
	syms            int
	starts          []int
	summaries       map[statePair]summaryReason
	summaryBits     []uint64 // n×n bitmap of summaries when n ≤ denseSummaryLimit
	n               int
	closedCalls     map[callReturnKey]bool
	summariesByFrom map[int][]statePair
	contexts        map[int]bool
	callEdges       map[int][]callEdgeInfo
	reachA          map[int]reachReason
	reachB          map[int]reachReason
	worklist        []workItem
}

func analyze(g StateGraph) *analysis {
	an := &analysis{
		g:               g,
		syms:            g.NumSymbols(),
		starts:          g.StartStates(),
		summaries:       make(map[statePair]summaryReason),
		summariesByFrom: make(map[int][]statePair),
		contexts:        make(map[int]bool),
		closedCalls:     make(map[callReturnKey]bool),
		callEdges:       make(map[int][]callEdgeInfo),
		reachA:          make(map[int]reachReason),
		reachB:          make(map[int]reachReason),
	}
	if an.n = g.NumStates(); an.n <= denseSummaryLimit {
		an.summaryBits = make([]uint64, (an.n*an.n+63)/64)
	}
	for _, q := range an.starts {
		an.addReachA(q, reachReason{kind: "start"})
	}
	an.run()
	return an
}

func (an *analysis) addSummary(p statePair, r summaryReason) {
	if an.summaryBits != nil {
		i := p.from*an.n + p.to
		if an.summaryBits[i>>6]&(1<<(i&63)) != 0 {
			return
		}
		an.summaryBits[i>>6] |= 1 << (i & 63)
	} else if _, ok := an.summaries[p]; ok {
		return
	}
	an.summaries[p] = r
	an.summariesByFrom[p.from] = append(an.summariesByFrom[p.from], p)
	an.worklist = append(an.worklist, workItem{kind: "summary", pair: p})
	// Reach sets are closed under summaries from reachable contexts.
	if _, ok := an.reachA[p.from]; ok {
		an.addReachA(p.to, reachReason{kind: "summary", prev: p.from, pair: p})
	}
	if _, ok := an.reachB[p.from]; ok {
		an.addReachB(p.to, reachReason{kind: "summary", prev: p.from, pair: p})
	}
}

func (an *analysis) addContext(c int) {
	if an.contexts[c] {
		return
	}
	an.contexts[c] = true
	an.addSummary(statePair{c, c}, summaryReason{kind: "base"})
}

func (an *analysis) addReachA(q int, r reachReason) {
	if _, ok := an.reachA[q]; ok {
		return
	}
	an.reachA[q] = r
	an.addContext(q)
	an.worklist = append(an.worklist, workItem{kind: "reachA", q: q})
}

func (an *analysis) addReachB(q int, r reachReason) {
	if _, ok := an.reachB[q]; ok {
		return
	}
	an.reachB[q] = r
	an.addContext(q)
	an.worklist = append(an.worklist, workItem{kind: "reachB", q: q})
}

func (an *analysis) run() {
	for len(an.worklist) > 0 {
		item := an.worklist[len(an.worklist)-1]
		an.worklist = an.worklist[:len(an.worklist)-1]
		switch item.kind {
		case "summary":
			an.processSummary(item.pair)
		case "reachA":
			an.processReachA(item.q)
		case "reachB":
			an.processReachB(item.q)
		}
	}
}

// The process steps below bind one edge callback per call and advance the
// symbol it reads, so the closure is not rebuilt for every column.

func (an *analysis) processSummary(p statePair) {
	c, q := p.from, p.to
	var sym int

	// Internal transitions extend summaries.
	internal := func(to int) {
		an.addSummary(statePair{c, to}, summaryReason{kind: "internal", prev: p, sym: sym})
	}
	for sym = 0; sym < an.syms; sym++ {
		an.g.EachInternalEdge(q, sym, internal)
	}

	// A call transition from the end of the summary opens an inner context;
	// combining with an inner summary and a return transition closes it.
	call := func(linear, hier int) {
		an.addContext(linear)
		edge := callEdgeInfo{outer: p, callSym: sym, hier: hier}
		an.callEdges[linear] = append(an.callEdges[linear], edge)
		for _, inner := range an.summariesByFrom[linear] {
			an.closeCallReturn(edge, inner)
		}
	}
	for sym = 0; sym < an.syms; sym++ {
		an.g.EachCallEdge(q, sym, call)
	}

	// This summary may be the inner part of call edges targeting its
	// context.
	for _, edge := range an.callEdges[c] {
		an.closeCallReturn(edge, p)
	}
}

// closeCallReturn applies every return transition that closes the given call
// edge around the given inner summary.  A closure whose callReturnKey was
// closed before is skipped: it would derive only summaries that exist,
// each already holding its first derivation.
func (an *analysis) closeCallReturn(edge callEdgeInfo, inner statePair) {
	key := callReturnKey{edge.outer.from, edge.hier, inner.to}
	if an.closedCalls[key] {
		return
	}
	an.closedCalls[key] = true
	var retSym int
	ret := func(to int) {
		an.addSummary(statePair{edge.outer.from, to}, summaryReason{
			kind:    "callreturn",
			prev:    edge.outer,
			callSym: edge.callSym,
			inner:   inner,
			retSym:  retSym,
		})
	}
	for retSym = 0; retSym < an.syms; retSym++ {
		an.g.EachReturnEdge(inner.to, edge.hier, retSym, ret)
	}
}

func (an *analysis) processReachA(q int) {
	// Closure under summaries from q.
	for _, p := range an.summariesByFrom[q] {
		an.addReachA(p.to, reachReason{kind: "summary", prev: q, pair: p})
	}
	// Pending returns: the hierarchical edge is labelled with an initial
	// state.
	var sym int
	pendingReturn := func(to int) {
		an.addReachA(to, reachReason{kind: "pendingreturn", prev: q, sym: sym})
	}
	for sym = 0; sym < an.syms; sym++ {
		for _, q0 := range an.starts {
			an.g.EachReturnEdge(q, q0, sym, pendingReturn)
		}
	}
	// Everything reachable in phase A is reachable in phase B.
	an.addReachB(q, reachReason{kind: "phaseA", prev: q})
}

func (an *analysis) processReachB(q int) {
	for _, p := range an.summariesByFrom[q] {
		an.addReachB(p.to, reachReason{kind: "summary", prev: q, pair: p})
	}
	// Pending calls: only the linear successor matters.
	var sym int
	pendingCall := func(linear, _ int) {
		an.addReachB(linear, reachReason{kind: "pendingcall", prev: q, sym: sym})
	}
	for sym = 0; sym < an.syms; sym++ {
		an.g.EachCallEdge(q, sym, pendingCall)
	}
}

// accepted returns the lowest-numbered reachable accepting state, or
// ok=false when there is none.  Picking the lowest makes witnesses
// independent of map iteration order.
func (an *analysis) accepted() (q int, ok bool) {
	q = -1
	for r := range an.reachB {
		if an.g.IsAccepting(r) && (q < 0 || r < q) {
			q = r
		}
	}
	return q, q >= 0
}

// witness rebuilds nested words from an analysis's derivations, labelling
// symbol IDs through alpha.
type witness struct {
	an    *analysis
	alpha *alphabet.Alphabet
}

func (w witness) position(sym int, kind nestedword.Kind) *nestedword.NestedWord {
	return nestedword.New(nestedword.Position{Symbol: w.alpha.Symbol(sym), Kind: kind})
}

// summary reconstructs a well-matched nested word realizing the summary
// pair p.
func (w witness) summary(p statePair) *nestedword.NestedWord {
	r := w.an.summaries[p]
	switch r.kind {
	case "internal":
		return nestedword.Concat(w.summary(r.prev), w.position(r.sym, nestedword.Internal))
	case "callreturn":
		return nestedword.Concat(w.summary(r.prev), w.position(r.callSym, nestedword.Call),
			w.summary(r.inner), w.position(r.retSym, nestedword.Return))
	default: // "base"
		return nestedword.Empty()
	}
}

// reach reconstructs a nested word that takes the automaton from an initial
// state to q, following the phase A / phase B derivations.
func (w witness) reach(q int, phaseB bool) *nestedword.NestedWord {
	var r reachReason
	if phaseB {
		r = w.an.reachB[q]
	} else {
		r = w.an.reachA[q]
	}
	switch r.kind {
	case "phaseA":
		return w.reach(r.prev, false)
	case "summary":
		return nestedword.Concat(w.reach(r.prev, phaseB), w.summary(r.pair))
	case "pendingreturn":
		return nestedword.Concat(w.reach(r.prev, phaseB), w.position(r.sym, nestedword.Return))
	case "pendingcall":
		return nestedword.Concat(w.reach(r.prev, phaseB), w.position(r.sym, nestedword.Call))
	default: // "start"
		return nestedword.Empty()
	}
}

// findAccepted returns some nested word accepted by g, labelled through
// alpha, or ok=false when the language is empty.  The word leads to the
// lowest-numbered reachable accepting state, so repeated calls agree.
func findAccepted(g StateGraph, alpha *alphabet.Alphabet) (*nestedword.NestedWord, bool) {
	an := analyze(g)
	q, ok := an.accepted()
	if !ok {
		return nil, false
	}
	return witness{an, alpha}.reach(q, true), true
}

// isEmpty reports whether g accepts no nested word.
func isEmpty(g StateGraph) bool {
	_, ok := analyze(g).accepted()
	return !ok
}

// SomeWord returns a nested word accepted by the automaton, or ok=false when
// the language is empty.
func (d *DNWA) SomeWord() (*nestedword.NestedWord, bool) { return findAccepted(d, d.alpha) }

// symmetricDifference is the virtual product of two deterministic automata
// over the same alphabet that accepts L(a) △ L(b): a product state accepts
// when exactly one component does.  It implements StateGraph without
// materializing the product, so the equivalence check explores only
// reachable product states.
type symmetricDifference struct {
	a, b *DNWA
}

func (d *symmetricDifference) NumStates() int  { return d.a.num * d.b.num }
func (d *symmetricDifference) NumSymbols() int { return d.a.alpha.Size() }
func (d *symmetricDifference) StartStates() []int {
	return []int{d.a.start*d.b.num + d.b.start}
}
func (d *symmetricDifference) IsAccepting(q int) bool {
	qa, qb := q/d.b.num, q%d.b.num
	return d.a.IsAccepting(qa) != d.b.IsAccepting(qb)
}
func (d *symmetricDifference) EachCallEdge(q, sym int, f func(linear, hier int)) {
	qa, qb := q/d.b.num, q%d.b.num
	la, ha := d.a.stepCall(qa, sym)
	lb, hb := d.b.stepCall(qb, sym)
	f(la*d.b.num+lb, ha*d.b.num+hb)
}
func (d *symmetricDifference) EachInternalEdge(q, sym int, f func(to int)) {
	qa, qb := q/d.b.num, q%d.b.num
	f(d.a.stepInternal(qa, sym)*d.b.num + d.b.stepInternal(qb, sym))
}
func (d *symmetricDifference) EachReturnEdge(lin, hier, sym int, f func(to int)) {
	la, lb := lin/d.b.num, lin%d.b.num
	ha, hb := hier/d.b.num, hier%d.b.num
	f(d.a.stepReturn(la, ha, sym)*d.b.num + d.b.stepReturn(lb, hb, sym))
}
