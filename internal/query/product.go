package query

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/alphabet"
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
// members the cluster has.  Acceptance is a per-query bitmask (one row of
// ⌈k/64⌉ words over member indices per product state), and a ProductRunner
// reads a member's verdict as one bit of the current state's row.  A solo
// query is the one-member product (SoloProduct): its mask row is the
// automaton's own accept bit, so the engine steps one runner kind.
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
// product automaton's own deterministic runner, whose Verdict reads one bit
// of the current state's accept-bitmask row instead of a single accept bit.
// Like Runner, a ProductRunner owns its hierarchical stack and is not safe
// for concurrent use.  On an empty stack StepReturn is a pending return for
// every member at once, per Section 3.1.
type ProductRunner struct {
	dnwaRunner
	p *CompiledProduct
}

// Verdict reports member j's verdict for the stream consumed so far, viewed
// as a complete nested word: bit j of the current state's mask row.  j must
// be below the product's member count.
//
//nwvet:hotpath
func (r *ProductRunner) Verdict(j int) bool {
	return r.p.mask[int(r.state)*r.p.maskW+j>>6]&(1<<(uint(j)&63)) != 0
}

// CompiledProduct is an immutable product-compiled query cluster: one
// deterministic automaton whose accept structure is a per-query bitmask,
// answering all its member queries at once.  Build one with
// CompileProduct, or let the planner (internal/query/plan) cluster a whole
// bundle; the engine dispatches one ProductRunner per cluster and demuxes
// the verdict mask back to the member names.
type CompiledProduct struct {
	inner *Compiled // the product automaton over member-state tuples
	nq    int       // member query count

	// mask is the accept bitmask slab: one row of maskW = maskWords(nq)
	// words per product state, bit j of row q set when member j accepts in
	// product state q.
	mask  []uint64
	maskW int
}

// alphabet returns the shared alphabet the cluster was compiled over.
func (p *CompiledProduct) alphabet() *alphabet.Alphabet { return p.inner.alpha }

// NumStates returns the number of reachable member-state tuples, the
// product's state count.
func (p *CompiledProduct) NumStates() int { return p.inner.num }

// maskWords returns the words in one accept-mask row over nq members.
func maskWords(nq int) int { return (nq + 63) >> 6 }

// NewProductRunner returns a fresh runner positioned at the document start.
func (p *CompiledProduct) NewProductRunner() *ProductRunner {
	return &ProductRunner{dnwaRunner: dnwaRunner{c: p.inner, state: p.inner.start}, p: p}
}

// Retarget points the runner at p, positioned at the document start, and
// keeps its hierarchical stack's storage: an engine session moves its
// runners to another engine this way instead of building new ones.
func (r *ProductRunner) Retarget(p *CompiledProduct) {
	r.c, r.p = p.inner, p
	r.Reset()
}

// SoloProduct wraps one compiled query as the product of itself: the same
// automaton, whose one-word mask row per state is its accept bit.  No
// product is constructed — the engine registers every solo query this way,
// so it steps one runner kind.
func SoloProduct(c *Compiled) *CompiledProduct {
	mask := make([]uint64, c.num)
	for s, ok := range c.accept {
		if ok {
			mask[s] = 1
		}
	}
	return &CompiledProduct{inner: c, nq: 1, mask: mask, maskW: 1}
}

// CompileProduct compiles a cluster of deterministic member queries over one
// shared alphabet into a single CompiledProduct.  budget caps the product's
// state count (≤ 0 means the serialization limit); exceeding it returns
// ErrStateBudget, the signal the planner downgrades on.  Member verdicts are
// preserved exactly: the runner's Verdict(j) always equals what members[j]'s
// own runner would report on the same stream.
func CompileProduct(members []*Compiled, budget int) (*CompiledProduct, error) {
	if len(members) == 0 {
		return nil, errors.New("query: product of zero queries")
	}
	if len(members) > maxStates {
		return nil, fmt.Errorf("query: product of %d queries exceeds %d", len(members), maxStates)
	}
	if budget <= 0 || budget > maxStates {
		budget = maxStates
	}
	for i, c := range members[1:] {
		if !members[0].alpha.Equal(c.alpha) {
			return nil, fmt.Errorf("query: product member %d uses alphabet %v, member 0 uses %v",
				i+1, c.alpha, members[0].alpha)
		}
	}
	return compileDetProduct(members, budget)
}

// --- deterministic tuple product ----------------------------------------

// errUndiscovered is reported when the product's materialization pass meets
// a tuple the fixpoint never discovered.  It means the fixpoint skipped work
// it needed; the construction fails rather than ship a table whose targets
// name states outside it.
var errUndiscovered = errors.New("query: product construction met a tuple its fixpoint never discovered")

// packing lays out a tuple of small non-negative integers in uint64 words:
// field j, whose values are below n_j, takes bits.Len(n_j-1) bits at bit
// shift[j] of word word[j], and no field straddles a word (eight fields of
// up to 256 values fit one word).
type packing struct {
	w     int      // words per key
	word  []int    // field j's word within a key
	shift []uint   // field j's bit offset within that word
	mask  []uint64 // field j's mask, before the shift
}

func newPacking(sizes []int) packing {
	p := packing{
		word:  make([]int, len(sizes)),
		shift: make([]uint, len(sizes)),
		mask:  make([]uint64, len(sizes)),
	}
	var off uint
	for j, n := range sizes {
		width := uint(bits.Len32(uint32(n - 1)))
		if off+width > 64 {
			p.w++
			off = 0
		}
		p.word[j], p.shift[j], p.mask[j] = p.w, off, 1<<width-1
		off += width
	}
	p.w++
	return p
}

// pack overwrites key, of w words, with the packed tuple t.
func (p *packing) pack(key []uint64, t []int32) {
	clear(key)
	for j, v := range t {
		key[p.word[j]] |= uint64(v) << p.shift[j]
	}
}

// unpack writes key's fields into dst.
func (p *packing) unpack(key []uint64, dst []int32) []int32 {
	for j := range dst {
		dst[j] = int32(key[p.word[j]] >> p.shift[j] & p.mask[j])
	}
	return dst
}

// internTable numbers distinct keys of w words 0, 1, 2, ... in order of
// first insertion.  The keys live in one flat slab, and an open-addressing
// table of IDs, kept at most half full, finds them.
type internTable struct {
	w     int
	keys  []uint64 // key of ID id at [id*w : (id+1)*w]
	slots []int32  // ID + 1, 0 when empty
	shift uint     // 64 - log2(len(slots)): a hash's top bits pick the slot
}

func newInternTable(w int) *internTable {
	t := &internTable{w: w}
	t.rehash(64)
	return t
}

func (t *internTable) len() int { return len(t.keys) / t.w }

func (t *internTable) key(id int32) []uint64 {
	return t.keys[int(id)*t.w : (int(id)+1)*t.w]
}

// find returns key's slot and ID, or the empty slot where it belongs and -1.
func (t *internTable) find(key []uint64) (int, int32) {
	var h uint64
	for _, x := range key {
		h = (bits.RotateLeft64(h, 29) ^ x) * 0x9e3779b97f4a7c15
	}
	last := len(t.slots) - 1
	for i := int(h >> t.shift); ; i = (i + 1) & last {
		id := t.slots[i] - 1
		if id < 0 || slices.Equal(t.key(id), key) {
			return i, id
		}
	}
}

// add stores key, which find placed at the empty slot i, and returns its ID.
func (t *internTable) add(i int, key []uint64) int32 {
	id := int32(t.len())
	t.slots[i] = id + 1
	t.keys = append(t.keys, key...)
	if 2*t.len() > len(t.slots) {
		t.rehash(2 * len(t.slots))
	}
	return id
}

// rehash rebuilds the slot table at size n, a power of two.
func (t *internTable) rehash(n int) {
	t.slots = make([]int32, n)
	t.shift = uint(65 - bits.Len(uint(n)))
	for id := int32(0); int(id) < t.len(); id++ {
		i, _ := t.find(t.key(id))
		t.slots[i] = id + 1
	}
}

// reorder renumbers the keys: order[id] is the old ID of new ID id.
func (t *internTable) reorder(order []int32) {
	renamed := make([]int32, len(order))
	keys := make([]uint64, 0, len(t.keys))
	for id, old := range order {
		renamed[old] = int32(id)
		keys = append(keys, t.key(old)...)
	}
	for i, s := range t.slots {
		if s != 0 {
			t.slots[i] = renamed[s-1] + 1
		}
	}
	t.keys = keys
}

// memberClasses factors member m's return-row IDs.  Two states are in one
// lin-class when they have the same row against every hier-capable state,
// and two hier-capable states are in one hier-class when they have the same
// row against every state; the row of a pair is then a function of its
// (lin-class, hier-class).  Classes are numbered in order of first
// occurrence.
type memberClasses struct {
	lin  []int32 // lin-class of each state
	hier []int32 // hier-class of each hier-capable state
	nh   int     // hier-class count
	row  []int32 // row ID of (lin-class l, hier-class h) at l*nh+h
}

func classesOf(m *Compiled) memberClasses {
	nrows := len(m.rows) / m.syms
	mc := memberClasses{lin: make([]int32, m.num), hier: make([]int32, m.hiers)}
	var linRep, hierRep []int // first state of each class
	lins := newRowSet(nrows, m.hiers)
	for q := range mc.lin {
		if mc.lin[q] = lins.id(m.rowID[q*m.hiers : (q+1)*m.hiers]); int(mc.lin[q]) == len(linRep) {
			linRep = append(linRep, q)
		}
	}
	hiers := newRowSet(nrows, m.num)
	col := make([]int32, m.num)
	for h := range mc.hier {
		for q := range col {
			col[q] = m.rowID[q*m.hiers+h]
		}
		if mc.hier[h] = hiers.id(col); int(mc.hier[h]) == len(hierRep) {
			hierRep = append(hierRep, h)
		}
	}
	mc.nh = len(hierRep)
	mc.row = make([]int32, 0, len(linRep)*mc.nh)
	for _, q := range linRep {
		for _, h := range hierRep {
			mc.row = append(mc.row, m.rowID[q*m.hiers+h])
		}
	}
	return mc
}

// classIndex numbers the tuples of member classes of the tuples the
// fixpoint processes, in order of first occurrence: the LIDs of states, or
// the HIDs of hier-capable tuples (see detBuilder).
type classIndex struct {
	cls    [][]int32 // member j's class of each of its states
	p      packing
	t      *internTable
	tuples []int32 // the unpacked class tuple of each ID, one value per member
	of     []int32 // the ID of each processed tuple, in processing order
	key    []uint64
}

func newClassIndex(cls [][]int32, sizes []int) *classIndex {
	p := newPacking(sizes)
	return &classIndex{cls: cls, p: p, t: newInternTable(p.w), key: make([]uint64, p.w)}
}

// add numbers the class tuple of the unpacked tuple t, records it as t's
// ID, and reports whether it is new.
func (x *classIndex) add(t []int32) (int32, bool) {
	clear(x.key)
	for j, q := range t {
		x.key[x.p.word[j]] |= uint64(x.cls[j][q]) << x.p.shift[j]
	}
	i, id := x.t.find(x.key)
	isNew := id < 0
	if isNew {
		id = x.t.add(i, x.key)
		for j, q := range t {
			x.tuples = append(x.tuples, x.cls[j][q])
		}
	}
	x.of = append(x.of, id)
	return id, isNew
}

func (x *classIndex) len() int { return x.t.len() }

// tuple returns the unpacked class tuple of ID id.
func (x *classIndex) tuple(id int32) []int32 {
	k := len(x.cls)
	return x.tuples[int(id)*k : int(id+1)*k]
}

// detBuilder is the working state of the deterministic product construction.
// A product state is a tuple of member states, packed with tp and numbered
// by states in discovery order.  The builder also tracks the subset of
// tuples that can appear as hierarchical data on a return edge.
//
// Return pairing is factored through member classes (see memberClasses).
// A processed state's tuple of member lin-classes gets a lin ID (LID, in
// lids), and a processed hier-capable tuple's tuple of member hier-classes
// a hier ID (HID, in hids).  The tuple of member rows of a (lin, hier)
// pair, its class tuple, depends only on the pair's (LID, HID), so the
// fixpoint pairs only the first state of each LID with the first hier of
// each HID.  Class tuples are packed with cp and numbered by pairs, and
// pairRow[l][h] is the class tuple of (LID l, HID h).
//
// Every member table the loops read is built once per construction with
// its values already shifted into the member's packed field, so packing a
// key takes no shifts.
type detBuilder struct {
	ms     []*Compiled
	syms   int
	budget int
	err    error

	tp     packing
	states *internTable
	isHier []bool
	hiers  []int32 // hier-capable ids in discovery order (start tuple first)
	hierT  []int32 // their unpacked tuples, len(ms) members each, same order

	// tgt[j] holds member j's call-linear, call-hierarchical and internal
	// targets of state q at [q*syms : (q+1)*syms], and its return targets
	// of row r at [r*syms : (r+1)*syms], shifted into field j of tp.
	tgt []memberTargets

	lids, hids *classIndex

	// byLin and byHier hold every member's row IDs of (lin-class, hier-
	// class) pairs, shifted into the member's field of cp.  Member j's
	// pair (l, h) is at byLin[linAt[j] + l*nh[j] + h] and at
	// byHier[hierAt[j] + h*nl[j] + l], so pairing one side with every ID
	// of the other reads one run per member (see pairKey).
	byLin, byHier     []uint64
	linAt, hierAt     []int32
	nl, nh            []int32
	off               []int32 // pairKey's per-member offsets for the fixed side
	cp                packing
	pairs             *internTable
	pairRow           [][]int32
	visited, expanded int // (LID, HID) pairs the fixpoint paired, and class tuples it expanded

	// Scratch: one key per symbol, symbol-major (symbol sym's tp.w words
	// at [sym*tp.w : (sym+1)*tp.w]), for the call-linear, call-
	// hierarchical, internal and return targets of one state or class
	// tuple; one tuple key, one class key, a member-state tuple and a
	// class tuple.
	lin, hier, internal, ret []uint64
	heldQ, heldR             []int32 // the member states and rows the keys hold, -1 for none
	key, ckey                []uint64
	dt, ct                   []int32
}

// memberTargets is one member's transition tables with every target
// shifted into the member's field of the packed tuple key.
type memberTargets struct{ lin, hier, internal, ret []uint64 }

// shifted returns the targets of tbl shifted left by sh.
func shifted(tbl []int32, sh uint) []uint64 {
	out := make([]uint64, len(tbl))
	for i, q := range tbl {
		out[i] = uint64(q) << sh
	}
	return out
}

func newDetBuilder(ms []*Compiled, budget int) *detBuilder {
	k, syms := len(ms), ms[0].syms
	b := &detBuilder{
		ms:     ms,
		syms:   syms,
		budget: budget,
		tgt:    make([]memberTargets, k),
		linAt:  make([]int32, k),
		hierAt: make([]int32, k),
		nl:     make([]int32, k),
		nh:     make([]int32, k),
		off:    make([]int32, k),
		dt:     make([]int32, k),
		ct:     make([]int32, k),
	}
	mcs := make([]memberClasses, k)
	nums, rows := make([]int, k), make([]int, k)
	lins, hiers := make([][]int32, k), make([][]int32, k)
	lcs, hcs := make([]int, k), make([]int, k)
	for j, m := range ms {
		mc := classesOf(m)
		mcs[j] = mc
		nums[j], rows[j] = m.num, len(m.rows)/syms
		lins[j], hiers[j] = mc.lin, mc.hier
		lcs[j], hcs[j] = len(mc.row)/mc.nh, mc.nh
	}
	b.tp, b.cp = newPacking(nums), newPacking(rows)
	b.states, b.pairs = newInternTable(b.tp.w), newInternTable(b.cp.w)
	b.lids, b.hids = newClassIndex(lins, lcs), newClassIndex(hiers, hcs)
	for j, m := range ms {
		sh := b.tp.shift[j]
		b.tgt[j] = memberTargets{
			lin:      shifted(m.callLin, sh),
			hier:     shifted(m.callHier, sh),
			internal: shifted(m.internT, sh),
			ret:      shifted(m.rows, sh),
		}
		b.addPairRows(j, &mcs[j])
	}
	b.lin = make([]uint64, syms*b.tp.w)
	b.hier = make([]uint64, syms*b.tp.w)
	b.internal = make([]uint64, syms*b.tp.w)
	b.ret = make([]uint64, syms*b.tp.w)
	b.heldQ, b.heldR = slices.Repeat([]int32{-1}, k), slices.Repeat([]int32{-1}, k)
	b.key = make([]uint64, b.tp.w)
	b.ckey = make([]uint64, b.cp.w)
	return b
}

// addPairRows lays member j's row IDs of (lin-class, hier-class) pairs out
// in byLin and byHier.
func (b *detBuilder) addPairRows(j int, mc *memberClasses) {
	sh, nh := b.cp.shift[j], mc.nh
	nl := len(mc.row) / nh
	b.nl[j], b.nh[j] = int32(nl), int32(nh)
	b.linAt[j], b.hierAt[j] = int32(len(b.byLin)), int32(len(b.byHier))
	b.byLin = append(b.byLin, shifted(mc.row, sh)...)
	for h := 0; h < nh; h++ {
		for l := 0; l < nl; l++ {
			b.byHier = append(b.byHier, uint64(mc.row[l*nh+h])<<sh)
		}
	}
}

func (b *detBuilder) count() int { return b.states.len() }

// symKey returns symbol sym's key in a per-symbol buffer.
func (b *detBuilder) symKey(buf []uint64, sym int) []uint64 {
	w := b.tp.w
	return buf[sym*w : (sym+1)*w]
}

// repeats reports whether symbol sym's key in a per-symbol buffer equals
// symbol sym-1's.  The loops skip such a key: interning or looking up the
// previous one already did all the work it would do.
func (b *detBuilder) repeats(buf []uint64, sym int) bool {
	w := b.tp.w
	return sym > 0 && slices.Equal(buf[sym*w:(sym+1)*w], buf[(sym-1)*w:sym*w])
}

// unpack writes product state id's member states into dst.
func (b *detBuilder) unpack(id int32, dst []int32) []int32 {
	return b.tp.unpack(b.states.key(id), dst)
}

// intern returns the product state ID of a key, discovering it if new.  On
// budget overflow it records ErrStateBudget and returns 0; the caller's loop
// terminates via the err field.
func (b *detBuilder) intern(key []uint64) int32 {
	if b.err != nil {
		return 0
	}
	i, id := b.states.find(key)
	if id >= 0 {
		return id
	}
	if b.count() >= b.budget {
		b.err = ErrStateBudget
		return 0
	}
	b.isHier = append(b.isHier, false)
	return b.states.add(i, key)
}

// lookup returns the ID of a key the fixpoint interned in t.  On a miss it
// records errUndiscovered and returns 0.
func (b *detBuilder) lookup(t *internTable, key []uint64) int32 {
	_, id := t.find(key)
	if id < 0 {
		b.err = errUndiscovered
		return 0
	}
	return id
}

// lookupRow writes the state IDs of the per-symbol keys of buf into dst,
// one per symbol.
func (b *detBuilder) lookupRow(dst []int32, buf []uint64) {
	for sym := range dst {
		if b.repeats(buf, sym) {
			dst[sym] = dst[sym-1]
		} else {
			dst[sym] = b.lookup(b.states, b.symKey(buf, sym))
		}
	}
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
	n := len(b.hierT)
	b.hierT = slices.Grow(b.hierT, len(b.ms))[:n+len(b.ms)]
	b.unpack(id, b.hierT[n:])
}

// hierTuple returns the unpacked tuple of the i-th hier-capable state.
func (b *detBuilder) hierTuple(i int) []int32 {
	k := len(b.ms)
	return b.hierT[i*k : (i+1)*k]
}

// renumber gives the hier-capable tuples the IDs 0..H-1 in discovery order,
// so the start tuple keeps ID 0, moves every other tuple after them, and
// returns H.  Every hierarchical value a runner can pop is then below H, and
// hierTuple(h) is the tuple of ID h.  The states' LIDs follow the new IDs.
func (b *detBuilder) renumber() int {
	order := append([]int32(nil), b.hiers...)
	for q, h := range b.isHier {
		if !h {
			order = append(order, int32(q))
		}
	}
	b.states.reorder(order)
	lidOf := make([]int32, len(order))
	for id, old := range order {
		lidOf[id] = b.lids.of[old]
	}
	b.lids.of = lidOf
	return len(b.hiers)
}

// setRow overwrites member j's field of the per-symbol keys of buf with its
// row of shifted targets, indexed by symbol.
func (b *detBuilder) setRow(buf []uint64, j int, row []uint64) {
	w, o, keep := b.tp.w, b.tp.word[j], ^(b.tp.mask[j] << b.tp.shift[j])
	for sym, x := range row {
		buf[sym*w+o] = buf[sym*w+o]&keep | x
	}
}

// expand packs the componentwise call and internal targets of state d into
// the lin, hier and internal keys, one per symbol, and leaves d's unpacked
// tuple in dt.  The keys still hold the previous expansion's targets, so
// only the members whose state differs from it are rewritten.
func (b *detBuilder) expand(d int32) {
	for j, q := range b.unpack(d, b.dt) {
		if q == b.heldQ[j] {
			continue
		}
		b.heldQ[j] = q
		t, i := &b.tgt[j], int(q)*b.syms
		b.setRow(b.lin, j, t.lin[i:i+b.syms])
		b.setRow(b.hier, j, t.hier[i:i+b.syms])
		b.setRow(b.internal, j, t.internal[i:i+b.syms])
	}
}

// expandRet packs the componentwise return targets of a class tuple into
// the ret keys, one per symbol, rewriting only the members whose row
// differs from the previous expansion's.
func (b *detBuilder) expandRet(ct []int32) {
	for j, r := range ct {
		if r == b.heldR[j] {
			continue
		}
		b.heldR[j] = r
		i := int(r) * b.syms
		b.setRow(b.ret, j, b.tgt[j].ret[i:i+b.syms])
	}
}

// pairKey packs into ckey the class tuple of a pair whose fixed side set
// off (see pairLID and pairHID) and whose other side has the class tuple
// t: member j's field is slab[off[j]+t[j]].
func (b *detBuilder) pairKey(slab []uint64, t []int32) []uint64 {
	key := b.ckey
	clear(key)
	for j, o := range b.off {
		key[b.cp.word[j]] |= slab[o+t[j]]
	}
	return key
}

// pairLID pairs the new LID l with every HID so far.
func (b *detBuilder) pairLID(l int32) {
	for j, c := range b.lids.tuple(l) {
		b.off[j] = b.linAt[j] + c*b.nh[j]
	}
	b.pairRow = append(b.pairRow, make([]int32, 0, b.hids.len()))
	for h := int32(0); int(h) < b.hids.len(); h++ {
		b.pairRet(l, b.pairKey(b.byLin, b.hids.tuple(h)))
	}
}

// pairHID pairs the new HID h with every LID so far.
func (b *detBuilder) pairHID(h int32) {
	for j, c := range b.hids.tuple(h) {
		b.off[j] = b.hierAt[j] + c*b.nl[j]
	}
	for l := int32(0); int(l) < b.lids.len(); l++ {
		b.pairRet(l, b.pairKey(b.byHier, b.lids.tuple(l)))
	}
}

// pairRet records key, the class tuple of (LID l, HID h), as pairRow[l][h],
// and interns its componentwise return targets across every symbol unless
// an earlier pair had the same class tuple: every target it would intern
// is then interned already.
func (b *detBuilder) pairRet(l int32, key []uint64) {
	b.visited++
	i, id := b.pairs.find(key)
	if id < 0 {
		id = b.pairs.add(i, key)
		b.expanded++
		b.expandRet(b.cp.unpack(key, b.ct))
		for sym := 0; sym < b.syms; sym++ {
			if !b.repeats(b.ret, sym) {
				b.intern(b.symKey(b.ret, sym))
			}
		}
	}
	b.pairRow[l] = append(b.pairRow[l], id)
}

// compileDetProduct runs the reachable-product construction: fixpoint
// discovers the tuples, and materialize builds the tables over them.
func compileDetProduct(ms []*Compiled, budget int) (*CompiledProduct, error) {
	b := newDetBuilder(ms, budget)
	if err := b.fixpoint(); err != nil {
		return nil, err
	}
	return b.materialize()
}

// fixpoint is a worklist that expands call and internal transitions
// componentwise per discovered tuple, and pairs LIDs with HIDs for the
// return relation: a state with a new LID is paired with every HID known so
// far, and a hier-capable tuple with a new HID with every LID (all of them
// belong to processed states).  A state or hier whose class tuple was seen
// before skips its loop, since every pair it would form has the class tuple
// of a pair already visited.  The pairs visited are the first occurrences of
// each (LID, HID) in the loop that pairs every state with every hier, in
// that loop's order, so discovery order, and with it the budget check and
// the product's bytes, do not depend on the skipping.  Nor do they depend
// on skipping a target equal to the previous symbol's, which interning
// would find.  It returns ErrStateBudget when the tuples outgrow the
// budget.
func (b *detBuilder) fixpoint() error {
	// Seed: the start tuple (ID 0, hier-capable for pending returns) and
	// the all-dead tuple (the product's dead state; every componentwise
	// step out of it stays in it because member tables are dead-completed).
	for j, m := range b.ms {
		b.dt[j] = m.start
	}
	b.tp.pack(b.key, b.dt)
	b.markHier(b.intern(b.key))
	b.intern(b.deadKey())

	// ps states have been expanded and given LIDs; ph hiers have been
	// given HIDs.  Both inner loops grow the other's frontier, so the
	// outer loop runs until neither has work left.
	ps, ph := 0, 0
	for b.err == nil && (ps < b.count() || ph < len(b.hiers)) {
		for ps < b.count() && b.err == nil {
			d := int32(ps)
			ps++
			b.expand(d)
			for sym := 0; sym < b.syms; sym++ {
				if !b.repeats(b.lin, sym) {
					b.intern(b.symKey(b.lin, sym))
				}
				if !b.repeats(b.hier, sym) {
					b.markHier(b.intern(b.symKey(b.hier, sym)))
				}
				if !b.repeats(b.internal, sym) {
					b.intern(b.symKey(b.internal, sym))
				}
			}
			if l, ok := b.lids.add(b.dt); ok {
				b.pairLID(l)
			}
		}
		for ph < len(b.hiers) && b.err == nil {
			ht := b.hierTuple(ph)
			ph++
			if h, ok := b.hids.add(ht); ok {
				b.pairHID(h)
			}
		}
	}
	return b.err
}

// deadKey packs the all-dead tuple into the tuple key.
func (b *detBuilder) deadKey() []uint64 {
	for j, m := range b.ms {
		b.dt[j] = m.dead
	}
	b.tp.pack(b.key, b.dt)
	return b.key
}

// materialize renumbers the tuples hier-capable first and builds the
// Compiled tables and the per-state accept bitmask over the now-fixed state
// space.  Every target was discovered by the fixpoint, so it only looks
// them up; a miss, or a (LID, HID) pair the fixpoint never visited, fails
// with errUndiscovered.  The product has one return row per class tuple,
// and the row ID of (lin, hier) is read from pairRow through their LID and
// HID.
func (b *detBuilder) materialize() (*CompiledProduct, error) {
	ms, k, syms := b.ms, len(b.ms), b.syms
	hiers := b.renumber()
	num := b.count()
	c := &Compiled{
		alpha:  ms[0].alpha,
		num:    num,
		hiers:  hiers,
		syms:   syms,
		start:  0,
		dead:   b.lookup(b.states, b.deadKey()),
		accept: make([]bool, num),
	}
	maskW := maskWords(k)
	mask := make([]uint64, num*maskW)
	for q := 0; q < num; q++ {
		for j, s := range b.unpack(int32(q), b.dt) {
			if ms[j].accept[s] {
				mask[q*maskW+j>>6] |= 1 << (uint(j) & 63)
				c.accept[q] = true
			}
		}
	}
	c.callLin = make([]int32, num*syms)
	c.callHier = make([]int32, num*syms)
	c.internT = make([]int32, num*syms)
	for q := 0; q < num; q++ {
		b.expand(int32(q))
		row := q * syms
		b.lookupRow(c.callLin[row:row+syms], b.lin)
		b.lookupRow(c.callHier[row:row+syms], b.hier)
		b.lookupRow(c.internT[row:row+syms], b.internal)
	}
	c.rows = make([]int32, b.pairs.len()*syms)
	for id := 0; id < b.pairs.len(); id++ {
		b.expandRet(b.cp.unpack(b.pairs.key(int32(id)), b.ct))
		b.lookupRow(c.rows[id*syms:(id+1)*syms], b.ret)
	}
	for _, ids := range b.pairRow {
		if len(ids) != b.hids.len() {
			return nil, errUndiscovered
		}
	}
	c.rowID = make([]int32, num*hiers)
	for q := 0; q < num; q++ {
		ids, dst := b.pairRow[b.lids.of[q]], c.rowID[q*hiers:(q+1)*hiers]
		for h, hid := range b.hids.of {
			dst[h] = ids[hid]
		}
	}
	if b.err != nil {
		return nil, b.err
	}
	return &CompiledProduct{inner: c, nq: k, mask: mask, maskW: maskW}, nil
}
