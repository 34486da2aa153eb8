// Package engine evaluates many compiled queries over one shared event
// stream in a single left-to-right pass.
//
// The paper's headline systems claim (Section 3.2) is that a deterministic
// NWA answers a document query in one streaming pass with memory bounded by
// the document depth.  This package lifts that claim from one query to N.
// DNWAs are closed under product, so an Engine holds N registered queries
// as deterministic product groups: the product clusters of a planned
// bundle, and every solo compiled DNWA (query.Compile) as the one-member
// product of itself (query.SoloProduct).  A Session holds one
// query.ProductRunner per group — one runner kind, one fan-out loop, one
// verdict demux.  Events read from the source are interned once against the
// engine's shared alphabet as they are appended to the session's batch,
// packed into one 4-byte word each, and fanned out to every runner in
// fixed-size batches, so each query observes the same single pass, no
// runner ever hashes a label, and the stream is never materialized; total
// memory is O(depth · N) plus one constant-size 4 KiB batch buffer,
// independent of the document length.
//
// Sessions are pooled: serving many documents against the same query set
// reuses the runner state and batch buffer allocation-free, which is what a
// production front-end answering repeated requests needs.  All registered
// queries must share one alphabet — that is what makes edge interning sound
// — and RegisterQuery and RegisterBundle report duplicate names and
// alphabet mismatches as errors.
package engine

import (
	"fmt"
	"io"
	"slices"
	"sync"

	"repro/internal/alphabet"
	"repro/internal/docstream"
	"repro/internal/nestedword"
	"repro/internal/query"
)

// EventSource yields a document's SAX-style events one at a time.  Next
// returns io.EOF at the clean end of the stream; any other error aborts the
// pass.  *docstream.Tokenizer satisfies this interface directly.
type EventSource interface {
	Next() (docstream.Event, error)
}

// Engine is an immutable set of registered queries.  Build it once with
// RegisterQuery / RegisterBundle, then call Run (safe for concurrent use)
// for each document.
//
// Every registered query is answered by a product group: a planned
// bundle's cluster shares one ProductRunner whose verdict bits are demuxed
// back to the member names, and a solo query is a one-member group —
// Result.Verdicts and Names are indistinguishable from per-query fan-out.
type Engine struct {
	names  []string
	byName map[string]int
	groups []engineGroup
	alpha  *alphabet.Alphabet // shared by every registered query

	pool sync.Pool // *Session
}

// engineGroup is one registered product group: the shared automaton plus
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

// RegisterQuery adds a compiled query under a display name and returns its
// index into Result.Verdicts.  Only a *query.Compiled is served: any other
// query — a CompiledN above all — is refused with an error wrapping
// query.ErrNNWANotServed (determinize and recompile it).  The name must be
// new and the query's alphabet must equal the alphabet of every previously
// registered query (the first registration fixes it).  RegisterQuery must
// not be called concurrently with Run.
func (e *Engine) RegisterQuery(name string, q query.Query) (int, error) {
	c, ok := q.(*query.Compiled)
	if !ok {
		return 0, fmt.Errorf("engine: query %q is %T: %w", name, q, query.ErrNNWANotServed)
	}
	if _, dup := e.byName[name]; dup {
		return 0, fmt.Errorf("engine: query %q already registered", name)
	}
	if e.alpha == nil {
		e.alpha = c.Alphabet()
	} else if !e.alpha.Equal(c.Alphabet()) {
		return 0, fmt.Errorf("engine: query %q uses alphabet %v, engine interns against %v",
			name, c.Alphabet(), e.alpha)
	}
	idx := e.add(name)
	e.groups = append(e.groups, engineGroup{indices: []int{idx}, product: query.SoloProduct(c)})
	// Sessions created for the old query set are stale; drop them.
	e.pool = sync.Pool{New: func() any { return e.newSession() }}
	return idx, nil
}

// add appends a verdict slot under name and returns its index.
func (e *Engine) add(name string) int {
	idx := len(e.names)
	e.byName[name] = idx
	e.names = append(e.names, name)
	return idx
}

// RegisterBundle registers every query of a loaded bundle under its bundle
// name, in bundle order, and returns their verdict indices.  This is how a
// front-end boots from a serialized query set (query.OpenBundle) instead of
// compiling per process: the bundle's tables — possibly aliasing an mmap'd
// read-only region — are used as-is.  A planned bundle's product groups are
// registered as shared runners with their verdicts demuxed to the same
// indices per-query registration would have used, and each solo query as a
// one-member group.  On error the engine may be left with a prefix of the
// bundle registered; treat it as unusable.
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
	for i := range indices {
		name := b.Name(i)
		if _, dup := e.byName[name]; dup {
			return nil, fmt.Errorf("engine: bundle query %q: already registered", name)
		}
		indices[i] = e.add(name)
		if c := b.Compiled(i); c != nil {
			e.groups = append(e.groups, engineGroup{indices: []int{indices[i]}, product: query.SoloProduct(c)})
		}
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
// returned by RegisterQuery and RegisterBundle), the number of events
// consumed, and the maximum number of simultaneously open elements — the
// streaming memory bound.
type Result struct {
	Verdicts []bool
	Events   int
	MaxDepth int
}

// Session is the reusable per-pass state: one product runner per registered
// group, plus the shared batch buffer.  Obtain one with Acquire for manual
// event feeding, or let Run manage it.
type Session struct {
	engine *Engine
	prods  []*query.ProductRunner // parallel to engine.groups
	batch  []uint32               // packed interned events (packEvent)
	events int
	depth  int // shared: all runners see the same calls/returns
	max    int
}

func (e *Engine) newSession() *Session {
	s := &Session{
		engine: e,
		prods:  make([]*query.ProductRunner, len(e.groups)),
		batch:  make([]uint32, 0, batchSize),
	}
	for i, g := range e.groups {
		s.prods[i] = g.product.NewProductRunner()
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

// Adopt moves a session checked out of another engine over to e, reset,
// keeping its event batch and its runners with their stacks: each of e's
// groups retargets one of the session's runners, and only groups beyond
// the session's runner count build new ones.  A long-lived owner — a
// serve.Pool shard handed the next bundle generation's engine — switches
// engines this way without a fresh session.  The session holds no
// reference to the old engine afterwards and belongs to e: Release it to
// e.
func (e *Engine) Adopt(s *Session) {
	n := len(e.groups)
	prods := s.prods[:cap(s.prods)]
	if len(prods) < n {
		prods = slices.Grow(prods, n-len(prods))[:n]
	}
	for i, g := range e.groups {
		if prods[i] == nil {
			prods[i] = g.product.NewProductRunner()
		} else {
			prods[i].Retarget(g.product)
		}
	}
	clear(prods[n:]) // runners past e's groups would keep the old engine's tables
	s.engine, s.prods = e, prods[:n]
	s.Reset()
}

// Release returns a session to the pool.
func (e *Engine) Release(s *Session) { e.pool.Put(s) }

// Reset returns the session to the start of a new document, keeping every
// runner and buffer allocation.  Sessions from Acquire are already reset.
func (s *Session) Reset() {
	for _, r := range s.prods {
		r.Reset()
	}
	s.batch = s.batch[:0]
	s.events, s.depth, s.max = 0, 0, 0
}

// feedRunner replays the packed batch into one product runner.
//
//nwvet:hotpath
func feedRunner(r *query.ProductRunner, batch []uint32) {
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
	for _, r := range s.prods {
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

// Run streams the whole source through this session and writes the
// verdicts into dst: every registered query is evaluated in the same single
// pass, and the event stream is never stored.  Run reuses dst.Verdicts'
// storage when it has room for every registered query, so a caller that
// keeps one Result per document slot — a serve.Future, say — reads verdicts
// without allocating.
//
// Uninterned events (Sym == 0) are interned against the engine's shared
// alphabet as they are buffered.  Pre-interned events are trusted as-is:
// they must have been interned against Engine.Alphabet() (an interning
// tokenizer bound to any other alphabet yields in-range but wrong symbol
// IDs, and silently wrong verdicts).
//
// The session must be at the start of a document (fresh from Acquire, or
// Reset by its owner); on error the session is left mid-stream and must be
// Reset before reuse, and dst is left as it was.
//
//nwvet:hotpath
func (s *Session) Run(src EventSource, dst *Result) error {
	e := s.engine
	for {
		ev, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		s.batch = append(s.batch, packEvent(ev.Kind, e.symID(&ev)))
		if len(s.batch) == cap(s.batch) {
			s.flush()
		}
	}
	s.flush()
	dst.Verdicts = slices.Grow(dst.Verdicts[:0], len(e.names))[:len(e.names)]
	dst.Events, dst.MaxDepth = s.events, s.max
	for gi, r := range s.prods {
		for j, idx := range e.groups[gi].indices {
			dst.Verdicts[idx] = r.Verdict(j)
		}
	}
	return nil
}

// Run streams the whole source through a pooled session: every registered
// query is evaluated in the same single pass, and the event stream is never
// stored.  It is safe to call concurrently; each call uses its own session.
func (e *Engine) Run(src EventSource) (*Result, error) {
	s := e.Acquire()
	defer e.Release(s)
	res := new(Result)
	if err := s.Run(src, res); err != nil {
		return nil, err
	}
	return res, nil
}

// RunReader tokenizes the reader — interning every label against the
// engine's shared alphabet at the edge — and runs the pass: the end-to-end
// streaming path from raw bytes to verdicts.
func (e *Engine) RunReader(r io.Reader) (*Result, error) {
	return e.Run(docstream.NewInterningTokenizer(r, e.alpha))
}
