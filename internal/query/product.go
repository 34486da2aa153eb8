package query

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"

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

// detBuilder is the working state of the deterministic product construction.
// A product state is a tuple of member states, kept packed: member j's state
// takes bits.Len(num_j-1) bits at bit shift[j] of word word[j] of a w-word
// key, and no member straddles a word (eight members of up to 256 states fit
// one word).  One open-addressing table of product IDs interns those keys.
// The builder also tracks the subset of tuples that can appear as
// hierarchical data on a return edge.
type detBuilder struct {
	ms     []*Compiled
	syms   int
	budget int
	err    error

	w     int      // words per key
	word  []int    // member j's word within a key
	shift []uint   // member j's bit offset within that word
	mask  []uint64 // member j's state mask, before the shift

	keys      []uint64 // flat: key of product state id at [id*w : (id+1)*w]
	slots     []int32  // open addressing over keys: product ID + 1, 0 when empty
	slotShift uint     // 64 - log2(len(slots)): a hash's top bits pick the slot
	isHier    []bool
	hiers     []int32 // hier-capable ids in discovery order (start tuple first)

	// Scratch: one key per symbol (syms*w words, see keyAt) for the
	// call-linear, call-hierarchical, internal and return targets of one
	// state or pair, one gathered key, a sparse member's return row, and two
	// unpacked tuples.
	lin, hier, internal, ret []uint64
	gathered                 []uint64
	row                      []int32
	dt, ht                   []int32
}

func newDetBuilder(ms []*Compiled, budget int) *detBuilder {
	k, syms := len(ms), ms[0].syms
	b := &detBuilder{
		ms:     ms,
		syms:   syms,
		budget: budget,
		word:   make([]int, k),
		shift:  make([]uint, k),
		mask:   make([]uint64, k),
		row:    make([]int32, syms),
		dt:     make([]int32, k),
		ht:     make([]int32, k),
	}
	var off uint
	for j, m := range ms {
		n := uint(bits.Len32(uint32(m.num - 1)))
		if off+n > 64 {
			b.w++
			off = 0
		}
		b.word[j], b.shift[j], b.mask[j] = b.w, off, 1<<n-1
		off += n
	}
	b.w++
	b.lin = make([]uint64, syms*b.w)
	b.hier = make([]uint64, syms*b.w)
	b.internal = make([]uint64, syms*b.w)
	b.ret = make([]uint64, syms*b.w)
	b.gathered = make([]uint64, b.w)
	b.rehash(64)
	return b
}

func (b *detBuilder) count() int { return len(b.isHier) }

func (b *detBuilder) key(id int32) []uint64 {
	return b.keys[int(id)*b.w : (int(id)+1)*b.w]
}

// keyAt gathers symbol sym's key out of a per-symbol buffer, which holds
// word i of every symbol's key at [i*syms : (i+1)*syms].
func (b *detBuilder) keyAt(buf []uint64, sym int) []uint64 {
	for i := range b.gathered {
		b.gathered[i] = buf[i*b.syms+sym]
	}
	return b.gathered
}

// keyOf packs a tuple of member states into a fresh key.
func (b *detBuilder) keyOf(t []int32) []uint64 {
	key := make([]uint64, b.w)
	for j, q := range t {
		key[b.word[j]] |= uint64(q) << b.shift[j]
	}
	return key
}

// unpack writes product state id's member states into dst.
func (b *detBuilder) unpack(id int32, dst []int32) []int32 {
	key := b.key(id)
	for j := range dst {
		dst[j] = int32(key[b.word[j]] >> b.shift[j] & b.mask[j])
	}
	return dst
}

// find returns key's slot: the one holding its product ID, or the empty slot
// where it belongs.
func (b *detBuilder) find(key []uint64) int {
	var h uint64
	for _, x := range key {
		h = (bits.RotateLeft64(h, 29) ^ x) * 0x9e3779b97f4a7c15
	}
	last := len(b.slots) - 1
	for i := int(h >> b.slotShift); ; i = (i + 1) & last {
		id := b.slots[i] - 1
		if id < 0 || slices.Equal(b.key(id), key) {
			return i
		}
	}
}

// rehash rebuilds the slot table at size n, a power of two.
func (b *detBuilder) rehash(n int) {
	b.slots = make([]int32, n)
	b.slotShift = uint(65 - bits.Len(uint(n)))
	for id := int32(0); int(id) < b.count(); id++ {
		b.slots[b.find(b.key(id))] = id + 1
	}
}

// intern returns the product state ID of a key, discovering it if new.  On
// budget overflow it records ErrStateBudget and returns 0; the caller's loop
// terminates via the err field.
func (b *detBuilder) intern(key []uint64) int32 {
	if b.err != nil {
		return 0
	}
	i := b.find(key)
	if id := b.slots[i] - 1; id >= 0 {
		return id
	}
	if b.count() >= b.budget {
		b.err = ErrStateBudget
		return 0
	}
	id := int32(b.count())
	b.slots[i] = id + 1
	b.keys = append(b.keys, key...)
	b.isHier = append(b.isHier, false)
	if 2*b.count() > len(b.slots) {
		b.rehash(2 * len(b.slots))
	}
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
	renamed := make([]int32, len(order))
	keys := make([]uint64, 0, len(b.keys))
	for id, old := range order {
		renamed[old] = int32(id)
		keys = append(keys, b.key(old)...)
	}
	for i, s := range b.slots {
		if s != 0 {
			b.slots[i] = renamed[s-1] + 1
		}
	}
	b.keys = keys
	return len(b.hiers)
}

// orRow packs one member's row of targets, indexed by symbol, into the
// per-symbol keys of buf.
func (b *detBuilder) orRow(buf []uint64, j int, row []int32) {
	w, sh := b.word[j]*b.syms, b.shift[j]
	dst := buf[w : w+len(row)]
	for sym, q := range row {
		dst[sym] |= uint64(q) << sh
	}
}

// expand packs the componentwise call and internal targets of state d into
// the lin, hier and internal keys, one per symbol, and leaves d's unpacked
// tuple in dt.
func (b *detBuilder) expand(d int32) {
	clear(b.lin)
	clear(b.hier)
	clear(b.internal)
	for j, q := range b.unpack(d, b.dt) {
		m := b.ms[j]
		i := int(q) * b.syms
		b.orRow(b.lin, j, m.callLin[i:i+b.syms])
		b.orRow(b.hier, j, m.callHier[i:i+b.syms])
		b.orRow(b.internal, j, m.internT[i:i+b.syms])
	}
}

// expandRet packs the componentwise return targets of a (lin, hier) pair of
// unpacked tuples into the ret keys, one per symbol.
func (b *detBuilder) expandRet(dt, ht []int32) {
	clear(b.ret)
	for j, m := range b.ms {
		b.orRow(b.ret, j, m.returnRow(dt[j], ht[j], b.row))
	}
}

// pairRet interns the componentwise return targets of one (lin, hier) pair
// of unpacked tuples across every symbol.
func (b *detBuilder) pairRet(dt, ht []int32) {
	b.expandRet(dt, ht)
	for sym := 0; sym < b.syms; sym++ {
		b.intern(b.keyAt(b.ret, sym))
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
	b := newDetBuilder(ms, budget)

	// Seed: the start tuple (ID 0, hier-capable for pending returns) and
	// the all-dead tuple (the product's dead state; every componentwise
	// step out of it stays in it because member tables are dead-completed).
	start, dead := make([]int32, k), make([]int32, k)
	for j, m := range ms {
		start[j], dead[j] = m.start, m.dead
	}
	b.markHier(b.intern(b.keyOf(start)))
	deadKey := b.keyOf(dead)
	b.intern(deadKey)

	// Fixpoint: ps states have had their calls/internals expanded and been
	// paired (as lin) with hiers[0:current]; ph hiers have been paired with
	// states [0, ps).  Both inner loops grow the other's frontier, so the
	// outer loop runs until neither has work left.
	ps, ph := 0, 0
	for b.err == nil && (ps < b.count() || ph < len(b.hiers)) {
		for ps < b.count() && b.err == nil {
			d := int32(ps)
			ps++
			b.expand(d)
			for sym := 0; sym < syms; sym++ {
				b.intern(b.keyAt(b.lin, sym))
				b.markHier(b.intern(b.keyAt(b.hier, sym)))
				b.intern(b.keyAt(b.internal, sym))
			}
			for hi := 0; hi < ph; hi++ {
				b.pairRet(b.dt, b.unpack(b.hiers[hi], b.ht))
			}
		}
		for ph < len(b.hiers) && b.err == nil {
			b.unpack(b.hiers[ph], b.ht)
			ph++
			for d := int32(0); int(d) < ps; d++ {
				b.pairRet(b.unpack(d, b.dt), b.ht)
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
		dead:   b.intern(deadKey),
		accept: make([]bool, num),
	}
	maskW := bitset.Words(k)
	mask := make([]uint64, num*maskW)
	for q := 0; q < num; q++ {
		row := bitset.Slab(mask, q, maskW)
		for j, s := range b.unpack(int32(q), b.dt) {
			if ms[j].accept[s] {
				row.Set(j)
				c.accept[q] = true
			}
		}
	}
	c.callLin = make([]int32, num*syms)
	c.callHier = make([]int32, num*syms)
	c.internT = make([]int32, num*syms)
	for q := 0; q < num; q++ {
		b.expand(int32(q))
		for sym := 0; sym < syms; sym++ {
			i := q*syms + sym
			c.callLin[i] = b.intern(b.keyAt(b.lin, sym))
			c.callHier[i] = b.intern(b.keyAt(b.hier, sym))
			c.internT[i] = b.intern(b.keyAt(b.internal, sym))
		}
	}
	// Return table over (lin, hier < H) pairs, visited in dense index order.
	eachReturn := func(f func(lin, hier int32, sym int, to int32)) {
		for q := int32(0); int(q) < num; q++ {
			b.unpack(q, b.dt)
			for h := int32(0); int(h) < hiers; h++ {
				b.expandRet(b.dt, b.unpack(h, b.ht))
				for sym := 0; sym < syms; sym++ {
					f(q, h, sym, b.intern(b.keyAt(b.ret, sym)))
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
