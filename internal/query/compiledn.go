package query

import (
	"repro/internal/alphabet"
	"repro/internal/nwa"
)

// CompiledN is an immutable compiled nondeterministic NWA: its transition
// relations flattened into prefix-offset adjacency (CSR) tables indexed by
// state*numSymbols+sym for calls and internals and by
// (lin*numStates+hier)*numSymbols+sym for returns.
//
// CompiledN implements Query, so an engine can run it in process next to
// deterministic queries; its runner simulates the automaton on line with the
// subset-of-pairs construction of Section 3.2, keeping one summary set per
// stack frame.  It is not served: bundles, the planner and the serialized
// formats hold deterministic automata only (an NNWA is determinized and
// compiled with Compile), and the differential tests keep CompiledN as an
// in-process oracle next to NNWA.Accepts and Determinize.
type CompiledN struct {
	alpha  *alphabet.Alphabet
	num    int
	syms   int // alphabet size + 1 (the out-of-alphabet column)
	starts []int32
	accept []bool

	// Call and internal adjacency, indexed q*syms+sym.
	callOff  []int32
	callLin  []int32
	callHier []int32
	intOff   []int32
	intTo    []int32

	// Return adjacency over the quadratic index (lin*num+hier)*syms+sym.
	retOff []int32
	retTo  []int32
}

// CompileN flattens a nondeterministic NWA into its compiled form.  Like
// Compile, the result is immutable and safe for concurrent use.
//
//nwvet:oracle TestNNWAQueriesInEngine and TestPoolServesNNWAQuery run the NNWA side of the differential through it
func CompileN(n *nwa.NNWA) *CompiledN {
	alpha := n.Alphabet()
	num := n.NumStates()
	syms := alpha.Size() + 1
	c := &CompiledN{
		alpha:  alpha,
		num:    num,
		syms:   syms,
		accept: make([]bool, num),
	}
	for _, q := range n.StartStates() {
		c.starts = append(c.starts, int32(q))
	}
	for q := 0; q < num; q++ {
		c.accept[q] = n.IsAccepting(q)
	}

	// Call adjacency.
	callCount := make([]int32, num*syms)
	n.EachCall(func(state, sym, _, _ int) { callCount[state*syms+sym]++ })
	c.callOff = prefixSums(callCount)
	c.callLin = make([]int32, c.callOff[len(c.callOff)-1])
	c.callHier = make([]int32, len(c.callLin))
	fill := make([]int32, num*syms)
	n.EachCall(func(state, sym, linear, hier int) {
		i := state*syms + sym
		at := c.callOff[i] + fill[i]
		fill[i]++
		c.callLin[at] = int32(linear)
		c.callHier[at] = int32(hier)
	})

	// Internal adjacency.
	intCount := make([]int32, num*syms)
	n.EachInternal(func(state, sym, _ int) { intCount[state*syms+sym]++ })
	c.intOff = prefixSums(intCount)
	c.intTo = make([]int32, c.intOff[len(c.intOff)-1])
	clear(fill)
	n.EachInternal(func(state, sym, to int) {
		i := state*syms + sym
		c.intTo[c.intOff[i]+fill[i]] = int32(to)
		fill[i]++
	})

	// Return adjacency.
	size := num * num * syms
	retCount := make([]int32, size)
	n.EachReturn(func(lin, hier, sym, _ int) {
		retCount[(lin*num+hier)*syms+sym]++
	})
	c.retOff = prefixSums(retCount)
	c.retTo = make([]int32, c.retOff[len(c.retOff)-1])
	retFill := make([]int32, size)
	n.EachReturn(func(lin, hier, sym, to int) {
		i := (lin*num+hier)*syms + sym
		c.retTo[c.retOff[i]+retFill[i]] = int32(to)
		retFill[i]++
	})
	return c
}

func prefixSums(counts []int32) []int32 {
	off := make([]int32, len(counts)+1)
	for i, c := range counts {
		off[i+1] = off[i] + c
	}
	return off
}

// Alphabet returns the alphabet the compiled symbol IDs refer to.
func (c *CompiledN) Alphabet() *alphabet.Alphabet { return c.alpha }

func (c *CompiledN) callSucc(q, sym int) (lin, hier []int32) {
	i := q*c.syms + sym
	return c.callLin[c.callOff[i]:c.callOff[i+1]], c.callHier[c.callOff[i]:c.callOff[i+1]]
}

func (c *CompiledN) internalSucc(q, sym int) []int32 {
	i := q*c.syms + sym
	return c.intTo[c.intOff[i]:c.intOff[i+1]]
}

func (c *CompiledN) returnSucc(lin, hier int32, sym int) []int32 {
	idx := (int(lin)*c.num+int(hier))*c.syms + sym
	return c.retTo[c.retOff[idx]:c.retOff[idx+1]]
}

// NewRunner returns a fresh nondeterministic state-set runner.
func (c *CompiledN) NewRunner() Runner {
	r := &nnwaRunner{c: c}
	r.S = make([]bool, c.num*c.num)
	r.R = make([]bool, c.num)
	r.Reset()
	return r
}

// nnwaFrame is the runner's per-open-element snapshot: the summary and
// reachable sets as they stood just before the call, plus the call symbol —
// the data the subset-of-pairs determinization propagates along a
// hierarchical edge.
type nnwaFrame struct {
	S   []bool // num×num summary pairs
	R   []bool // reachable set
	sym int    // interned call symbol
}

// nnwaRunner simulates a nondeterministic NWA on line.  S holds the summary
// pairs (q, q′) — some run moves the automaton from q to q′ across the
// stretch since the innermost pending call — and R the states reachable
// from an initial state over the whole prefix; each stack frame snapshots
// both sets at its call.  The memory is O(numStates² · depth), bounded by
// the document depth, and popped frames are recycled through a free list.
type nnwaRunner struct {
	c     *CompiledN
	S     []bool
	R     []bool
	stack []nnwaFrame
	free  []nnwaFrame
}

// fresh returns zeroed S and R buffers, reusing a recycled frame when one is
// available.
func (r *nnwaRunner) fresh() ([]bool, []bool) {
	if n := len(r.free); n > 0 {
		f := r.free[n-1]
		r.free = r.free[:n-1]
		clear(f.S)
		clear(f.R)
		return f.S, f.R
	}
	return make([]bool, r.c.num*r.c.num), make([]bool, r.c.num)
}

func (r *nnwaRunner) recycle(S, R []bool) {
	r.free = append(r.free, nnwaFrame{S: S, R: R})
}

func (r *nnwaRunner) StepCall(sym int) {
	c := r.c
	sym = clampSym(sym, c.syms)
	below := nnwaFrame{S: r.S, R: r.R, sym: sym}
	r.stack = append(r.stack, below)
	S, R := r.fresh()
	// A new context opens: the summary resets to the identity and the
	// reachable set advances through the linear call successors.
	for q := 0; q < c.num; q++ {
		S[q*c.num+q] = true
	}
	for q := 0; q < c.num; q++ {
		if !below.R[q] {
			continue
		}
		lins, _ := c.callSucc(q, sym)
		for _, lin := range lins {
			R[lin] = true
		}
	}
	r.S, r.R = S, R
}

func (r *nnwaRunner) StepInternal(sym int) {
	c := r.c
	sym = clampSym(sym, c.syms)
	S, R := r.fresh()
	num := c.num
	for from := 0; from < num; from++ {
		row := r.S[from*num : (from+1)*num]
		for mid, ok := range row {
			if !ok {
				continue
			}
			for _, to := range c.internalSucc(mid, sym) {
				S[from*num+int(to)] = true
			}
		}
	}
	for q := 0; q < num; q++ {
		if !r.R[q] {
			continue
		}
		for _, to := range c.internalSucc(q, sym) {
			R[to] = true
		}
	}
	r.recycle(r.S, r.R)
	r.S, r.R = S, R
}

func (r *nnwaRunner) StepReturn(sym int) {
	c := r.c
	sym = clampSym(sym, c.syms)
	num := c.num
	S, R := r.fresh()
	if n := len(r.stack); n == 0 {
		// Pending return: the hierarchical edge is labelled with an initial
		// state, as in Section 3.1.
		for from := 0; from < num; from++ {
			row := r.S[from*num : (from+1)*num]
			for mid, ok := range row {
				if !ok {
					continue
				}
				for _, q0 := range c.starts {
					for _, to := range c.returnSucc(int32(mid), q0, sym) {
						S[from*num+int(to)] = true
					}
				}
			}
		}
		for q := 0; q < num; q++ {
			if !r.R[q] {
				continue
			}
			for _, q0 := range c.starts {
				for _, to := range c.returnSucc(int32(q), q0, sym) {
					R[to] = true
				}
			}
		}
	} else {
		below := r.stack[n-1]
		r.stack = r.stack[:n-1]
		// Matched return: stitch the context below the call to the summary
		// inside it through the call and return relations.
		for from := 0; from < num; from++ {
			row := below.S[from*num : (from+1)*num]
			for mid, ok := range row {
				if !ok {
					continue
				}
				lins, hiers := c.callSucc(mid, below.sym)
				for i, lin := range lins {
					inner := r.S[int(lin)*num : (int(lin)+1)*num]
					for to2, ok2 := range inner {
						if !ok2 {
							continue
						}
						for _, to := range c.returnSucc(int32(to2), hiers[i], sym) {
							S[from*num+int(to)] = true
						}
					}
				}
			}
		}
		for q := 0; q < num; q++ {
			if !below.R[q] {
				continue
			}
			lins, hiers := c.callSucc(q, below.sym)
			for i, lin := range lins {
				inner := r.S[int(lin)*num : (int(lin)+1)*num]
				for to2, ok2 := range inner {
					if !ok2 {
						continue
					}
					for _, to := range c.returnSucc(int32(to2), hiers[i], sym) {
						R[to] = true
					}
				}
			}
		}
		r.recycle(below.S, below.R)
	}
	r.recycle(r.S, r.R)
	r.S, r.R = S, R
}

func (r *nnwaRunner) Accepting() bool {
	for q := 0; q < r.c.num; q++ {
		if r.R[q] && r.c.accept[q] {
			return true
		}
	}
	return false
}

func (r *nnwaRunner) Reset() {
	if cap(r.stack) > maxKeptStack || cap(r.free) > maxKeptStack {
		r.stack, r.free = nil, nil // the recycled frames go with the stack
	}
	for n := len(r.stack); n > 0; n = len(r.stack) {
		f := r.stack[n-1]
		r.stack = r.stack[:n-1]
		r.recycle(f.S, f.R)
	}
	clear(r.S)
	clear(r.R)
	for q := 0; q < r.c.num; q++ {
		r.S[q*r.c.num+q] = true
	}
	for _, q := range r.c.starts {
		r.R[q] = true
	}
}
