package query

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/alphabet"
	"repro/internal/bitset"
)

// This file is the product-compilation layer: it turns a cluster of compiled
// deterministic queries over one shared alphabet into a single automaton that
// answers all of them in one pass, so per-event cost stops scaling with the
// number of registered queries.
//
// The construction is the classic product of Section 3.2: a product state is
// a tuple of member states, transitions go componentwise, and only the tuples
// actually reachable through the call/internal/return closure are
// materialized.  The per-event cost of the product runner is that of ONE
// deterministic runner — two or three indexed loads — regardless of how many
// members the cluster has.  Acceptance is a per-query bitmask (a bitset.Row
// over member indices per product state), and a ProductRunner demuxes that
// mask back into the member verdicts.  Nondeterministic (*CompiledN) queries
// have no product form; the planner (internal/query/plan) serves them solo.
//
// The paper keeps hierarchical states apart from linear ones, and the
// product exploits that: only the start tuple and the hierarchical targets
// of calls ever appear as hierarchical data on a return edge.  The
// construction numbers those tuples first, 0..H-1, so the return table has
// H hierarchical columns rather than one per product state.  On clusters of
// ContainsLabel-style members H is 2 out of hundreds of states.
//
// Products carry the multiplicative state cost the paper proves closure
// under, which is exactly why CompileProduct takes a state budget: a cluster
// whose reachable product outgrows the budget is rejected with
// ErrStateBudget, and the planner falls back to per-query fan-out for it.

// ErrStateBudget is reported by CompileProduct when the product's state
// space would exceed the caller's budget.  Callers — the planner above all —
// treat it as "fan this cluster out per query" rather than as a failure.
var ErrStateBudget = errors.New("query: product exceeds the state budget")

// ProductRunner is the streaming face of a product-compiled cluster: the
// product automaton's own deterministic runner, whose Verdicts read the
// current state's accept-bitmask row instead of a single accept bit.  Like
// Runner, a ProductRunner owns its hierarchical stack and is not safe for
// concurrent use.  On an empty stack StepReturn is a pending return for
// every member at once, per Section 3.1.
type ProductRunner struct {
	dnwaRunner
	p *CompiledProduct
}

// Verdicts overwrites dst — a row of at least QueryCount bits — with the
// per-member verdicts for the stream consumed so far, viewed as a complete
// nested word: bit j is member j's verdict.
//
//nwvet:hotpath
func (r *ProductRunner) Verdicts(dst bitset.Row) {
	dst.Zero()
	dst.Or(bitset.Slab(r.p.mask, int(r.state), r.p.maskW))
}

// CompiledProduct is an immutable product-compiled query cluster: one
// deterministic automaton whose accept structure is a per-query bitmask,
// answering QueryCount member queries at once.  Build one with
// CompileProduct, or let the planner (internal/query/plan) cluster a whole
// bundle; the engine dispatches one ProductRunner per cluster and demuxes
// the verdict mask back to the member names.
type CompiledProduct struct {
	inner *Compiled // the product automaton over member-state tuples
	nq    int       // member query count

	// mask is the accept bitmask slab: one row of maskW = bitset.Words(nq)
	// words per product state, bit j of row q set when member j accepts in
	// product state q.
	mask  []uint64
	maskW int

	// fmtVersion is the container version this product was decoded from
	// (0 for a freshly compiled one); Marshal re-emits it.
	fmtVersion uint32
}

// Alphabet returns the shared alphabet the cluster was compiled over.
func (p *CompiledProduct) Alphabet() *alphabet.Alphabet { return p.inner.alpha }

// QueryCount returns the number of member queries the product answers.
func (p *CompiledProduct) QueryCount() int { return p.nq }

// NumStates returns the number of reachable member-state tuples, the
// product's state count.
func (p *CompiledProduct) NumStates() int { return p.inner.num }

// NewProductRunner returns a fresh runner positioned at the document start.
func (p *CompiledProduct) NewProductRunner() *ProductRunner {
	return &ProductRunner{dnwaRunner: dnwaRunner{c: p.inner, state: p.inner.start}, p: p}
}

// CompileProduct compiles a cluster of deterministic member queries over one
// shared alphabet into a single CompiledProduct.  Every member must be a
// *Compiled.  budget caps the product's state count (≤ 0 means the
// serialization limit); exceeding it returns ErrStateBudget, the signal the
// planner downgrades on.  Member verdicts are preserved exactly: bit j of
// the runner's verdict mask always equals what members[j]'s own runner would
// report on the same stream.
func CompileProduct(members []Query, budget int) (*CompiledProduct, error) {
	if len(members) == 0 {
		return nil, errors.New("query: product of zero queries")
	}
	if len(members) > maxStates {
		return nil, fmt.Errorf("query: product of %d queries exceeds %d", len(members), maxStates)
	}
	if budget <= 0 || budget > maxStates {
		budget = maxStates
	}
	ms := make([]*Compiled, len(members))
	for i, m := range members {
		c, ok := m.(*Compiled)
		if !ok {
			return nil, fmt.Errorf("query: product member %d is %T, only *Compiled queries product-compile", i, m)
		}
		if i > 0 && !ms[0].alpha.Equal(c.alpha) {
			return nil, fmt.Errorf("query: product member %d uses alphabet %v, member 0 uses %v",
				i, c.alpha, ms[0].alpha)
		}
		ms[i] = c
	}
	return compileDetProduct(ms, budget)
}

// --- deterministic tuple product ----------------------------------------

// detBuilder is the working state of the deterministic product construction:
// an interning table from packed member-state tuples to product state IDs,
// the list of tuples discovered so far, and the subset of them that can
// appear as hierarchical data on a return edge.
type detBuilder struct {
	ms     []*Compiled
	k      int // member count
	syms   int
	budget int
	err    error

	ids    map[string]int32
	tuples []int32 // flat: tuple of state id at [id*k : (id+1)*k]
	key    []byte  // scratch: packed little-endian tuple key
	isHier []bool
	hiers  []int32 // hier-capable ids in discovery order (start tuple first)

	lin, hier, tmp []int32 // scratch tuples
}

func (b *detBuilder) count() int { return len(b.tuples) / b.k }

func (b *detBuilder) tuple(id int32) []int32 {
	return b.tuples[int(id)*b.k : (int(id)+1)*b.k]
}

// pack writes a tuple into the scratch key as packed little-endian IDs.
func (b *detBuilder) pack(t []int32) []byte {
	b.key = b.key[:0]
	for _, q := range t {
		b.key = binary.LittleEndian.AppendUint32(b.key, uint32(q))
	}
	return b.key
}

// intern returns the product state ID of a tuple, discovering it if new.  On
// budget overflow it records ErrStateBudget and returns 0; the caller's loop
// terminates via the err field.
func (b *detBuilder) intern(t []int32) int32 {
	if b.err != nil {
		return 0
	}
	if id, ok := b.ids[string(b.pack(t))]; ok {
		return id
	}
	if b.count() >= b.budget {
		b.err = ErrStateBudget
		return 0
	}
	id := int32(b.count())
	b.ids[string(b.key)] = id
	b.tuples = append(b.tuples, t...)
	b.isHier = append(b.isHier, false)
	return id
}

// markHier records that a tuple can appear as hierarchical data on a return
// edge (a call's hier target, or the start tuple standing in for −∞ on
// pending returns, Section 3.1).
func (b *detBuilder) markHier(id int32) {
	if b.err != nil || b.isHier[id] {
		return
	}
	b.isHier[id] = true
	b.hiers = append(b.hiers, id)
}

// renumber gives the hier-capable tuples the IDs 0..H-1 in discovery order,
// so the start tuple keeps ID 0, moves every other tuple after them, and
// returns H.  Every hierarchical value a runner can pop is then below H.
func (b *detBuilder) renumber() int {
	order := append([]int32(nil), b.hiers...)
	for q, h := range b.isHier {
		if !h {
			order = append(order, int32(q))
		}
	}
	tuples := make([]int32, 0, len(b.tuples))
	for id, old := range order {
		t := b.tuple(old)
		b.ids[string(b.pack(t))] = int32(id)
		tuples = append(tuples, t...)
	}
	b.tuples = tuples
	return len(b.hiers)
}

// pairRet interns the componentwise return targets of one (lin, hier) state
// pair across every symbol.
func (b *detBuilder) pairRet(d, h int32) {
	dt, ht := b.tuple(d), b.tuple(h)
	for sym := 0; sym < b.syms; sym++ {
		for j, m := range b.ms {
			b.tmp[j] = m.stepReturn(dt[j], ht[j], sym)
		}
		b.intern(b.tmp)
	}
}

// compileDetProduct runs the reachable-product construction: a worklist
// fixpoint that expands call and internal transitions componentwise per
// discovered tuple, and pairs every discovered tuple with every
// hier-capable tuple for the return relation (new states are paired with
// all known hiers, new hiers with all processed states, so each pair is
// covered exactly once).  The tuples are then renumbered hier-capable
// first, and a second pass rebuilds the componentwise targets into the
// dense/sparse Compiled tables and packs the per-state accept bitmask.
func compileDetProduct(ms []*Compiled, budget int) (*CompiledProduct, error) {
	k := len(ms)
	syms := ms[0].syms
	b := &detBuilder{
		ms:     ms,
		k:      k,
		syms:   syms,
		budget: budget,
		ids:    make(map[string]int32),
		lin:    make([]int32, k),
		hier:   make([]int32, k),
		tmp:    make([]int32, k),
	}

	// Seed: the start tuple (ID 0, hier-capable for pending returns) and
	// the all-dead tuple (the product's dead state; every componentwise
	// step out of it stays in it because member tables are dead-completed).
	for j, m := range ms {
		b.tmp[j] = m.start
	}
	b.markHier(b.intern(b.tmp))
	dead := make([]int32, k)
	for j, m := range ms {
		dead[j] = m.dead
	}
	b.intern(dead)

	// Fixpoint: ps states have had their calls/internals expanded and been
	// paired (as lin) with hiers[0:current]; ph hiers have been paired with
	// states [0, ps).  Both inner loops grow the other's frontier, so the
	// outer loop runs until neither has work left.
	ps, ph := 0, 0
	for b.err == nil && (ps < b.count() || ph < len(b.hiers)) {
		for ps < b.count() && b.err == nil {
			d := int32(ps)
			ps++
			dt := b.tuple(d)
			for sym := 0; sym < syms; sym++ {
				for j, m := range ms {
					i := int(dt[j])*syms + sym
					b.lin[j] = m.callLin[i]
					b.hier[j] = m.callHier[i]
					b.tmp[j] = m.internT[i]
				}
				b.intern(b.lin)
				b.markHier(b.intern(b.hier))
				b.intern(b.tmp)
			}
			for hi := 0; hi < ph; hi++ {
				b.pairRet(d, b.hiers[hi])
			}
		}
		for ph < len(b.hiers) && b.err == nil {
			h := b.hiers[ph]
			ph++
			for d := 0; d < ps; d++ {
				b.pairRet(int32(d), h)
			}
		}
	}
	if b.err != nil {
		return nil, b.err
	}

	// Second pass: materialize the tables over the now-fixed state space.
	// Every componentwise target below was already interned by the fixpoint,
	// so intern only looks up.
	hiers := b.renumber()
	num := b.count()
	c := &Compiled{
		alpha:  ms[0].alpha,
		num:    num,
		hiers:  hiers,
		syms:   syms,
		start:  0,
		dead:   b.intern(dead),
		accept: make([]bool, num),
	}
	maskW := bitset.Words(k)
	mask := make([]uint64, num*maskW)
	for q := 0; q < num; q++ {
		t := b.tuple(int32(q))
		row := bitset.Slab(mask, q, maskW)
		for j, m := range ms {
			if m.accept[t[j]] {
				row.Set(j)
				c.accept[q] = true
			}
		}
	}
	c.callLin = make([]int32, num*syms)
	c.callHier = make([]int32, num*syms)
	c.internT = make([]int32, num*syms)
	for q := 0; q < num; q++ {
		t := b.tuple(int32(q))
		for sym := 0; sym < syms; sym++ {
			for j, m := range ms {
				i := int(t[j])*syms + sym
				b.lin[j] = m.callLin[i]
				b.hier[j] = m.callHier[i]
				b.tmp[j] = m.internT[i]
			}
			i := q*syms + sym
			c.callLin[i] = b.intern(b.lin)
			c.callHier[i] = b.intern(b.hier)
			c.internT[i] = b.intern(b.tmp)
		}
	}
	// Return table over (lin, hier < H) pairs, visited in dense index order.
	eachReturn := func(f func(lin, hier int32, sym int, to int32)) {
		for q := 0; q < num; q++ {
			t := b.tuple(int32(q))
			for h := 0; h < hiers; h++ {
				ht := b.tuple(int32(h))
				for sym := 0; sym < syms; sym++ {
					for j, m := range ms {
						b.tmp[j] = m.stepReturn(t[j], ht[j], sym)
					}
					f(int32(q), int32(h), sym, b.intern(b.tmp))
				}
			}
		}
	}
	if size := num * hiers * syms; size <= denseReturnLimit {
		c.dense = true
		c.returnT = make([]int32, 0, size)
		eachReturn(func(_, _ int32, _ int, to int32) { c.returnT = append(c.returnT, to) })
	} else {
		var entries []sparseEntry
		eachReturn(func(lin, hier int32, sym int, to int32) {
			if to != c.dead {
				entries = append(entries, sparseEntry{c.returnKey(lin, hier, sym), to})
			}
		})
		c.sparseR = buildSparse(entries)
	}
	if b.err != nil {
		// Unreachable unless the fixpoint missed a pair; surface rather
		// than ship a table with dangling targets.
		return nil, b.err
	}
	return &CompiledProduct{inner: c, nq: k, mask: mask, maskW: maskW}, nil
}
