package query

import (
	"slices"

	"repro/internal/alphabet"
	"repro/internal/nestedword"
	"repro/internal/nwa"
)

// This file is the compiled half of the package: it turns the map-backed
// automata of the nwa package into immutable, index-addressed tables that the
// engine's hot loop can step through without hashing a single string.
//
// Symbol IDs.  A compiled automaton over an alphabet Σ uses the dense symbol
// IDs 0..|Σ|-1 of the alphabet package, plus one extra dedicated ID |Σ| — the
// out-of-alphabet ID returned by SymID for labels the queries have never
// heard of.  Every transition table has |Σ|+1 columns and the out-of-alphabet
// column is entirely dead (respectively empty), so an unknown label is
// handled by exactly the same indexed load as a known one: no branch, no
// warning path, no special case.  Tokenizers intern labels to these IDs once
// at the edge (docstream.NewInterningTokenizer), so N fanned-out queries pay
// one map lookup per event in total instead of one per event per query.
//
// Factored return tables.  Call and internal transitions live in flat dense
// slices indexed by state*numSymbols+sym: their size is linear in the number
// of states.  Return transitions are indexed by a (linear, hierarchical)
// state pair.  As in the paper, only some states can be hierarchical: the
// targets of call transitions plus the start state, which labels the edges
// of pending returns.  A compiled automaton numbers those states first,
// 0..H-1, so only num·H pairs can occur.  Most pairs repeat a few distinct
// rows of targets, so the table is factored through them: the pair (lin,
// hier) holds a row ID at rowID[lin*H+hier], and row r's targets, indexed by
// symbol, are rows[r*numSymbols : (r+1)*numSymbols].  A return step is two
// dependent loads.  Compile numbers rows in order of first occurrence over
// the pairs in index order; the product construction writes one row per
// tuple of member rows (see product.go).

// Runner is the streaming face of a compiled query: one Step call per
// document event, with the symbol already interned to a compiled ID
// (SymID / docstream interning).  A Runner owns its stack of hierarchical
// data, so the caller only dispatches on the event kind.  Runners are not
// safe for concurrent use; create one per concurrent pass.
type Runner interface {
	// StepCall consumes an element-open event.
	StepCall(sym int)
	// StepInternal consumes a text event.
	StepInternal(sym int)
	// StepReturn consumes an element-close event.  On an empty stack the
	// event is a pending return: the hierarchical edge comes from −∞ and is
	// labelled with the initial state(s), as in Section 3.1.
	StepReturn(sym int)
	// Accepting reports whether the stream consumed so far, viewed as a
	// complete nested word, is accepted.
	Accepting() bool
	// Reset returns the runner to the start of a new document, keeping its
	// allocations.
	Reset()
}

// Query is any compiled automaton that can mint fresh runners over a fixed
// alphabet: Compiled, and the test-only NNWA runner CompiledN.  Only a
// *Compiled is served — Bundle.Add and engine.RegisterQuery refuse every
// other Query — and Bundle.Query returns one, or nil at a product-grouped
// slot.
type Query interface {
	// Alphabet returns the alphabet the compiled symbol IDs refer to.
	Alphabet() *alphabet.Alphabet
	// NewRunner returns a fresh runner positioned at the document start.
	NewRunner() Runner
}

// Compiled is an immutable compiled deterministic NWA, the one served
// automaton type.  It implements Query; its runners step with two or three
// indexed loads per event and no allocation beyond amortized stack growth.
type Compiled struct {
	alpha  *alphabet.Alphabet
	num    int // states, including the dead state
	hiers  int // H: states 0..H-1 may be hierarchical (start and every callHier target among them)
	syms   int // alphabet size + 1 (the out-of-alphabet column)
	start  int32
	dead   int32
	accept []bool

	callLin  []int32 // num*syms, dead-completed
	callHier []int32 // num*syms
	internT  []int32 // num*syms

	rowID []int32 // num*hiers row IDs, index lin*hiers+hier
	rows  []int32 // one syms-wide row of return targets per distinct row
}

// Compile flattens a deterministic NWA into its compiled form.  The source
// automaton is not retained; compiled automata are immutable and safe for
// concurrent use.  States are renumbered hier-capable first (see hierFirst).
func Compile(d *nwa.DNWA) *Compiled {
	alpha := d.Alphabet()
	num := d.NumStates()
	syms := alpha.Size() + 1
	id, hiers := hierFirst(d)
	c := &Compiled{
		alpha:  alpha,
		num:    num,
		hiers:  hiers,
		syms:   syms,
		start:  id[d.Start()],
		dead:   id[d.Dead()],
		accept: make([]bool, num),
	}
	for q, nq := range id {
		c.accept[nq] = d.IsAccepting(q)
	}
	c.callLin = filled(num*syms, c.dead)
	c.callHier = filled(num*syms, c.dead)
	c.internT = filled(num*syms, c.dead)
	d.EachCall(func(state, sym, linear, hier int) {
		i := int(id[state])*syms + sym
		c.callLin[i] = id[linear]
		c.callHier[i] = id[hier]
	})
	d.EachInternal(func(state, sym, to int) {
		c.internT[int(id[state])*syms+sym] = id[to]
	})

	// Return transitions, grouped by linear state (a counting sort); a
	// transition whose hier component is not hier-capable can never fire
	// and is dropped.
	type entry struct {
		lin, cell, to int32 // cell = hier*syms + sym
	}
	entries := make([]entry, 0, d.NumReturnTransitions())
	first := make([]int32, num+1) // lin's transitions at [first[lin], first[lin+1])
	d.EachReturn(func(lin, hier, sym, to int) {
		if h := int(id[hier]); h < hiers {
			entries = append(entries, entry{id[lin], int32(h*syms + sym), id[to]})
			first[id[lin]+1]++
		}
	})
	for q := 0; q < num; q++ {
		first[q+1] += first[q]
	}
	byLin := make([]entry, len(entries))
	next := slices.Clone(first)
	for _, e := range entries {
		byLin[next[e.lin]] = e
		next[e.lin]++
	}
	// Factor the table one linear state at a time: fill lin's block of
	// hiers rows, then number each row in order of first occurrence over
	// the pairs in index order.
	rs := newRowSet(num, syms)
	block := make([]int32, hiers*syms)
	c.rowID = make([]int32, num*hiers)
	for lin := 0; lin < num; lin++ {
		for i := range block {
			block[i] = c.dead
		}
		for _, e := range byLin[first[lin]:first[lin+1]] {
			block[e.cell] = e.to
		}
		for h := 0; h < hiers; h++ {
			c.rowID[lin*hiers+h] = rs.id(block[h*syms : (h+1)*syms])
		}
	}
	c.rows = rs.rows
	return c
}

// hierFirst numbers d's states hier-capable first, in source order, then the
// rest in source order, and returns each source state's new ID and the
// hier-capable count H.  The hier-capable states are those a return can
// pop: the start state, which stands in for −∞ on pending returns, the dead
// state, which every out-of-alphabet call pushes, and every call's
// hierarchical target.
func hierFirst(d *nwa.DNWA) (id []int32, hiers int) {
	isHier := make([]bool, d.NumStates())
	isHier[d.Start()], isHier[d.Dead()] = true, true
	d.EachCall(func(_, _, _, hier int) { isHier[hier] = true })
	id = make([]int32, len(isHier))
	next := int32(0)
	for _, hier := range []bool{true, false} {
		for q := range id {
			if isHier[q] == hier {
				id[q] = next
				next++
			}
		}
		if hier {
			hiers = int(next)
		}
	}
	return id, hiers
}

func filled(n int, v int32) []int32 {
	s := make([]int32, n)
	for i := range s {
		s[i] = v
	}
	return s
}

// Alphabet returns the alphabet the compiled symbol IDs refer to.
func (c *Compiled) Alphabet() *alphabet.Alphabet { return c.alpha }

// numStates returns the number of states, including the dead state.
func (c *Compiled) numStates() int { return c.num }

// clampSym folds any ID outside the compiled range onto the out-of-alphabet
// column, so a Runner fed a stray ID behaves like one fed an unknown label.
func clampSym(sym, syms int) int {
	if uint(sym) >= uint(syms) {
		return syms - 1
	}
	return sym
}

func (c *Compiled) stepReturn(lin, hier int32, sym int) int32 {
	return c.rows[int(c.rowID[int(lin)*c.hiers+int(hier)])*c.syms+sym]
}

// returnRow returns the return targets of the (lin, hier) pair for every
// symbol, indexed by symbol: a view into the shared rows.
func (c *Compiled) returnRow(lin, hier int32) []int32 {
	i := int(c.rowID[int(lin)*c.hiers+int(hier)]) * c.syms
	return c.rows[i : i+c.syms]
}

// rowSet numbers distinct rows of syms values below n, in order of first
// insertion: the return rows of a compiled automaton, or the classes the
// product construction derives from them (see product.go).  Rows are
// interned packed, one field per column.
type rowSet struct {
	p    packing
	t    *internTable
	key  []uint64
	rows []int32 // row r at [r*syms : (r+1)*syms]
}

func newRowSet(n, syms int) *rowSet {
	sizes := make([]int, syms)
	for i := range sizes {
		sizes[i] = n
	}
	p := newPacking(sizes)
	return &rowSet{p: p, t: newInternTable(p.w), key: make([]uint64, p.w)}
}

// id returns row's ID, numbering it if new.
func (s *rowSet) id(row []int32) int32 {
	s.p.pack(s.key, row)
	i, id := s.t.find(s.key)
	if id < 0 {
		id = s.t.add(i, s.key)
		s.rows = append(s.rows, row...)
	}
	return id
}

// NewRunner returns a fresh deterministic runner.
func (c *Compiled) NewRunner() Runner {
	return &dnwaRunner{c: c, state: c.start}
}

// dnwaRunner is the compiled deterministic runner: a linear state plus one
// hierarchical state per open element.  Every step is one slice load, or two
// for a return; nothing allocates once the stack has grown to the document
// depth.
type dnwaRunner struct {
	c     *Compiled
	state int32
	stack []int32
}

//nwvet:hotpath
func (r *dnwaRunner) StepCall(sym int) {
	c := r.c
	i := int(r.state)*c.syms + clampSym(sym, c.syms)
	r.stack = append(r.stack, c.callHier[i])
	r.state = c.callLin[i]
}

//nwvet:hotpath
func (r *dnwaRunner) StepInternal(sym int) {
	c := r.c
	r.state = c.internT[int(r.state)*c.syms+clampSym(sym, c.syms)]
}

//nwvet:hotpath
func (r *dnwaRunner) StepReturn(sym int) {
	hier := r.c.start
	if n := len(r.stack); n > 0 {
		hier = r.stack[n-1]
		r.stack = r.stack[:n-1]
	}
	r.state = r.c.stepReturn(r.state, hier, clampSym(sym, r.c.syms))
}

//nwvet:hotpath
func (r *dnwaRunner) Accepting() bool { return r.c.accept[r.state] }

func (r *dnwaRunner) Reset() {
	r.state = r.c.start
	if cap(r.stack) > maxKeptStack {
		r.stack = nil
	}
	r.stack = r.stack[:0]
}

// maxKeptStack bounds the stack entries a runner keeps across Reset: one
// hierarchical state for a deterministic runner, one frame for a state-set
// runner.  A document deeper than this grows the stack as far as it must —
// streaming space is O(depth) — but Reset then drops the stack instead of
// pinning it for the runner's life, so one deep document does not hold its
// memory in a pooled session that serves shallow ones after it.  Below the
// bound Reset keeps the capacity, and steady-state steps stay
// allocation-free.
const maxKeptStack = 1 << 16

// RunWord drives a runner over a whole nested word, interning every symbol
// against alpha, and reports acceptance.  The runner is reset first, so it
// can be reused across calls.
func RunWord(r Runner, alpha *alphabet.Alphabet, n *nestedword.NestedWord) bool {
	r.Reset()
	ooa := alpha.Size()
	for i := 0; i < n.Len(); i++ {
		sym, ok := alpha.Index(n.SymbolAt(i))
		if !ok {
			sym = ooa
		}
		switch n.KindAt(i) {
		case nestedword.Call:
			r.StepCall(sym)
		case nestedword.Return:
			r.StepReturn(sym)
		default:
			r.StepInternal(sym)
		}
	}
	return r.Accepting()
}
