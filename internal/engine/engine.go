// Package engine evaluates many compiled queries over one shared event
// stream in a single left-to-right pass.
//
// The paper's headline systems claim (Section 3.2) is that a deterministic
// NWA answers a document query in one streaming pass with memory bounded by
// the document depth.  This package lifts that claim from one query to N:
// an Engine holds N registered query.Query values — compiled DNWAs
// (query.Compile), and the product clusters of a planned bundle — and a
// Session holds one query.Runner per query.  Events read from the source
// are interned once against the engine's shared alphabet as they are
// appended to the session's batch, packed into one 4-byte word each, and
// fanned out to every runner in fixed-size batches, so each query observes
// the same single pass, no runner ever hashes a label, and the stream is
// never materialized; total memory is O(depth · N) plus one constant-size
// 4 KiB batch buffer, independent of the document length.
//
// Sessions are pooled: serving many documents against the same query set
// reuses the runner state and batch buffer allocation-free, which is what a
// production front-end answering repeated requests needs.  All registered
// queries must share one alphabet — that is what makes edge interning sound
// — and Register reports duplicate names and alphabet mismatches as errors.
package engine

import (
	"fmt"
	"io"
	"sync"

	"repro/internal/alphabet"
	"repro/internal/bitset"
	"repro/internal/docstream"
	"repro/internal/nestedword"
	"repro/internal/nwa"
	"repro/internal/query"
)

// EventSource yields a document's SAX-style events one at a time.  Next
// returns io.EOF at the clean end of the stream; any other error aborts the
// pass.  *docstream.Tokenizer satisfies this interface directly.
type EventSource interface {
	Next() (docstream.Event, error)
}

// Engine is an immutable set of registered queries.  Build it once with
// Register / RegisterQuery / RegisterBundle, then call Run (safe for
// concurrent use) for each document.
//
// Registering a planned bundle (see internal/query/plan) dispatches each
// product-compiled cluster to one shared ProductRunner whose verdict
// bitmask is demuxed back to the member names — Result.Verdicts and Names
// are indistinguishable from per-query fan-out.
type Engine struct {
	names   []string
	byName  map[string]int
	queries []query.Query // parallel to names; nil where a product group answers
	solo    []int         // verdict indices with their own runner, in order
	groups  []engineGroup
	alpha   *alphabet.Alphabet // shared by every registered query

	pool sync.Pool // *Session
}

// engineGroup is one registered product cluster: the shared automaton plus
// the verdict slots its mask bits demux to.
type engineGroup struct {
	indices []int // verdict slots, mask-bit order
	product *query.CompiledProduct
}

// batchSize is how many events a session buffers before fanning them out to
// the runners: large enough to amortize the per-batch bookkeeping, small
// enough that the buffer of packed words stays a constant 4 KiB.
const batchSize = 1024

// A batch word packs one interned event: its 0-based compiled symbol ID
// above kindBits bits of nestedword.Kind.  The query decoder caps a
// compiled query's symbol columns at 2^20, so every in-range ID fits the 30
// bits above the kind with room to spare, and maxWordSym — an ID no query
// compiles — stands for any stray one: the runners fold every ID outside
// their range onto the out-of-alphabet column, so the fold loses nothing.
const (
	kindBits   = 2
	kindMask   = 1<<kindBits - 1
	maxWordSym = 1<<(32-kindBits) - 1
)

// packEvent packs an interned event into a batch word.  A kind other than
// Call or Return packs as Internal, which is how the runners step it.
//
//nwvet:hotpath
func packEvent(kind nestedword.Kind, sym int) uint32 {
	if uint(sym) > maxWordSym {
		sym = maxWordSym
	}
	if kind > nestedword.Return {
		kind = nestedword.Internal
	}
	return uint32(sym)<<kindBits | uint32(kind)
}

// symID is the 0-based symbol ID of an event: its own when it is
// pre-interned (Sym != 0), its label's in the shared alphabet otherwise.
// Before any query is registered there is no alphabet and an uninterned
// event gets -1, which packs as a stray ID.
//
//nwvet:hotpath
func (e *Engine) symID(ev *docstream.Event) int {
	if ev.Sym != 0 || e.alpha == nil {
		return ev.Sym - 1
	}
	return ev.SymID(e.alpha)
}

// New creates an empty engine.
func New() *Engine {
	e := &Engine{byName: make(map[string]int)}
	e.pool.New = func() any { return e.newSession() }
	return e
}

// RegisterQuery adds any compiled query — deterministic or nondeterministic
// — under a display name and returns its index into Result.Verdicts.  The
// name must be new and the query's alphabet must equal the alphabet of every
// previously registered query (the first registration fixes it).
// RegisterQuery must not be called concurrently with Run.
func (e *Engine) RegisterQuery(name string, q query.Query) (int, error) {
	if _, dup := e.byName[name]; dup {
		return 0, fmt.Errorf("engine: query %q already registered", name)
	}
	if e.alpha == nil {
		e.alpha = q.Alphabet()
	} else if !e.alpha.Equal(q.Alphabet()) {
		return 0, fmt.Errorf("engine: query %q uses alphabet %v, engine interns against %v",
			name, q.Alphabet(), e.alpha)
	}
	idx := len(e.names)
	e.byName[name] = idx
	e.names = append(e.names, name)
	e.queries = append(e.queries, q)
	e.solo = append(e.solo, idx)
	// Sessions created for the old query set are stale; drop them.
	e.pool = sync.Pool{New: func() any { return e.newSession() }}
	return idx, nil
}

// Register compiles a deterministic NWA and registers it — the thin wrapper
// keeping the pre-compile API working.
func (e *Engine) Register(name string, d *nwa.DNWA) (int, error) {
	return e.RegisterQuery(name, query.Compile(d))
}

// MustRegister is Register for statically known-good query sets; it panics
// on duplicate names or alphabet mismatches.
func (e *Engine) MustRegister(name string, d *nwa.DNWA) int {
	i, err := e.Register(name, d)
	if err != nil {
		panic(err)
	}
	return i
}

// MustRegisterQuery is RegisterQuery for statically known-good query sets.
func (e *Engine) MustRegisterQuery(name string, q query.Query) int {
	i, err := e.RegisterQuery(name, q)
	if err != nil {
		panic(err)
	}
	return i
}

// RegisterBundle registers every query of a loaded bundle under its bundle
// name, in bundle order, and returns their verdict indices.  This is how a
// front-end boots from a serialized query set (query.OpenBundle) instead of
// compiling per process: the bundle's tables — possibly aliasing an mmap'd
// read-only region — are used as-is.  A planned bundle's product groups are
// registered as shared runners with their verdicts demuxed to the same
// indices per-query registration would have used.  On error the engine may
// be left with a prefix of the bundle registered; treat it as unusable.
func (e *Engine) RegisterBundle(b *query.Bundle) ([]int, error) {
	if b.Len() > 0 {
		if e.alpha == nil {
			e.alpha = b.Alphabet()
		} else if !e.alpha.Equal(b.Alphabet()) {
			return nil, fmt.Errorf("engine: bundle uses alphabet %v, engine interns against %v",
				b.Alphabet(), e.alpha)
		}
	}
	base := len(e.names)
	indices := make([]int, b.Len())
	for i := 0; i < b.Len(); i++ {
		name := b.Name(i)
		if _, dup := e.byName[name]; dup {
			return nil, fmt.Errorf("engine: bundle query %q: already registered", name)
		}
		e.byName[name] = base + i
		e.names = append(e.names, name)
		e.queries = append(e.queries, b.Query(i))
		if b.Query(i) != nil {
			e.solo = append(e.solo, base+i)
		}
		indices[i] = base + i
	}
	for _, g := range b.Groups() {
		eg := engineGroup{indices: make([]int, len(g.Indices)), product: g.Product}
		for j, bi := range g.Indices {
			eg.indices[j] = base + int(bi)
		}
		e.groups = append(e.groups, eg)
	}
	// Sessions created for the old query set are stale; drop them.
	e.pool = sync.Pool{New: func() any { return e.newSession() }}
	return indices, nil
}

// Len returns the number of registered queries (product-grouped ones
// included).
func (e *Engine) Len() int { return len(e.names) }

// Names returns the registered query names in index order.
func (e *Engine) Names() []string { return append([]string(nil), e.names...) }

// Alphabet returns the shared alphabet of the registered queries (nil before
// the first registration).  Tokenizers built with it — see RunReader — emit
// events pre-interned for the engine.
func (e *Engine) Alphabet() *alphabet.Alphabet { return e.alpha }

// Result reports one document pass: the per-query verdicts (indexed as
// returned by Register), the number of events consumed, and the maximum
// number of simultaneously open elements — the streaming memory bound.
type Result struct {
	Verdicts []bool
	Events   int
	MaxDepth int
}

// stepper is the event-consuming face shared by per-query runners and
// product runners: what the fan-out loop needs, acceptance excluded.
type stepper interface {
	StepCall(sym int)
	StepInternal(sym int)
	StepReturn(sym int)
	Reset()
}

// Session is the reusable per-pass state: one runner per solo query, one
// shared product runner per registered cluster, plus the shared batch
// buffer.  Obtain one with Acquire for manual event feeding, or let Run
// manage it.
type Session struct {
	engine  *Engine
	runners []query.Runner         // parallel to engine.solo
	prods   []*query.ProductRunner // parallel to engine.groups
	feed    []stepper              // runners then prods: the fan-out list
	vrow    bitset.Row             // scratch: verdict demux row, widest group
	batch   []uint32               // packed interned events (packEvent)
	events  int
	depth   int // shared: all runners see the same calls/returns
	max     int
}

func (e *Engine) newSession() *Session {
	s := &Session{
		engine:  e,
		runners: make([]query.Runner, len(e.solo)),
		batch:   make([]uint32, 0, batchSize),
	}
	s.feed = make([]stepper, 0, len(e.solo)+len(e.groups))
	for i, qi := range e.solo {
		s.runners[i] = e.queries[qi].NewRunner()
		s.feed = append(s.feed, s.runners[i])
	}
	maxNq := 0
	for _, g := range e.groups {
		pr := g.product.NewProductRunner()
		s.prods = append(s.prods, pr)
		s.feed = append(s.feed, pr)
		if nq := g.product.QueryCount(); nq > maxNq {
			maxNq = nq
		}
	}
	if maxNq > 0 {
		s.vrow = bitset.New(maxNq)
	}
	return s
}

// Acquire checks a reset session out of the pool.  Call Release when done to
// make its allocations available to the next pass.  A long-lived owner — a
// serve.Pool shard worker, say — may instead keep the session checked out
// across many documents, calling Reset between them, and Release only at
// shutdown.
func (e *Engine) Acquire() *Session {
	s := e.pool.Get().(*Session)
	s.Reset()
	return s
}

// Release returns a session to the pool.
func (e *Engine) Release(s *Session) { e.pool.Put(s) }

// Reset returns the session to the start of a new document, keeping every
// runner and buffer allocation.  Sessions from Acquire are already reset.
func (s *Session) Reset() {
	for _, r := range s.feed {
		r.Reset()
	}
	s.batch = s.batch[:0]
	s.events, s.depth, s.max = 0, 0, 0
}

// Feed buffers one event, fanning the batch out to the runners once it
// fills.  Result flushes any buffered tail, so intermediate Result calls
// see every event fed so far.
//
// Uninterned events (Sym == 0) are interned against the engine's shared
// alphabet as they are buffered.  Pre-interned events are trusted as-is:
// they must have been interned against Engine.Alphabet() (an interning
// tokenizer bound to any other alphabet yields in-range but wrong symbol
// IDs, and silently wrong verdicts).
//
//nwvet:hotpath
func (s *Session) Feed(e docstream.Event) {
	s.batch = append(s.batch, packEvent(e.Kind, s.engine.symID(&e)))
	if len(s.batch) >= cap(s.batch) {
		s.flush()
	}
}

// feedRunner replays the packed batch into one runner — per-query or
// product, the dispatch is identical.
//
//nwvet:hotpath
func feedRunner(r stepper, batch []uint32) {
	for _, w := range batch {
		sym := int(w >> kindBits)
		switch nestedword.Kind(w & kindMask) {
		case nestedword.Call:
			r.StepCall(sym)
		case nestedword.Return:
			r.StepReturn(sym)
		default:
			r.StepInternal(sym)
		}
	}
}

// flush applies the buffered batch to every runner, updates the shared
// depth tracking, and empties the buffer.
func (s *Session) flush() {
	if len(s.batch) == 0 {
		return
	}
	for _, r := range s.feed {
		feedRunner(r, s.batch)
	}
	// Depth depends only on the event kinds, so it is tracked once for the
	// whole session rather than per runner.
	for _, w := range s.batch {
		switch nestedword.Kind(w & kindMask) {
		case nestedword.Call:
			s.depth++
			if s.depth > s.max {
				s.max = s.depth
			}
		case nestedword.Return:
			if s.depth > 0 {
				s.depth--
			}
		}
	}
	s.events += len(s.batch)
	s.batch = s.batch[:0]
}

// Result snapshots the verdicts for the events consumed so far, viewed as a
// complete nested word.
func (s *Session) Result() *Result {
	s.flush()
	e := s.engine
	res := &Result{
		Verdicts: make([]bool, len(e.names)),
		Events:   s.events,
		MaxDepth: s.max,
	}
	for i, r := range s.runners {
		res.Verdicts[e.solo[i]] = r.Accepting()
	}
	for gi, pr := range s.prods {
		pr.Verdicts(s.vrow)
		for j, idx := range e.groups[gi].indices {
			res.Verdicts[idx] = s.vrow.Has(j)
		}
	}
	return res
}

// Run streams the whole source through this session: every registered query
// is evaluated in the same single pass, and the event stream is never
// stored.  The session must be at the start of a document (fresh from
// Acquire, or Reset by its owner); on error the session is left mid-stream
// and must be Reset before reuse.
//
//nwvet:hotpath
func (s *Session) Run(src EventSource) (*Result, error) {
	e := s.engine
	for {
		ev, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		s.batch = append(s.batch, packEvent(ev.Kind, e.symID(&ev)))
		if len(s.batch) == cap(s.batch) {
			s.flush()
		}
	}
	s.flush()
	return s.Result(), nil
}

// Run streams the whole source through a pooled session: every registered
// query is evaluated in the same single pass, and the event stream is never
// stored.  It is safe to call concurrently; each call uses its own session.
func (e *Engine) Run(src EventSource) (*Result, error) {
	s := e.Acquire()
	defer e.Release(s)
	return s.Run(src)
}

// RunReader tokenizes the reader — interning every label against the
// engine's shared alphabet at the edge — and runs the pass: the end-to-end
// streaming path from raw bytes to verdicts.
func (e *Engine) RunReader(r io.Reader) (*Result, error) {
	return e.Run(docstream.NewInterningTokenizer(r, e.alpha))
}
