// Package serve is the multi-document serving layer on top of the engine
// package: where an engine.Engine answers N registered queries over one
// document in one pass, a serve.Pool answers them over a stream of many
// documents concurrently, one engine session per shard.
//
// A Pool is a view of a fixed set of shards (default
// runtime.GOMAXPROCS(0)) that serves one engine.  Each shard is a worker
// goroutine holding one engine.Session and one reusable decoder per input
// format — the interning tokenizer for native documents, an
// internal/adapter scanner for each of xml, json and trace once one
// arrives — and futures are recycled, so in the steady state Submit, Wait
// and Release of a document allocate nothing.  Incoming documents are
// routed to shards by the FNV-1a hash of their ID, so all submissions of one
// document ID serialize on one shard, keeping per-document ordering.
//
// Swap hands the same shards a new engine: it returns a second view over
// the same workers, queues and future free list, so a bundle reload costs
// its engine and a view's counters, not a pool.  Every queued future names
// the view it was submitted to, and a shard moves its session (its event
// batch and runner stacks kept) to a view's engine when its next document
// is the first of that view; its decoders carry over while the alphabet
// stays Equal.  The shard goroutines and queue capacity stay fixed however
// many views are open.
//
// Backpressure is a bounded queue per shard, shared by every view: Submit
// blocks once the target shard's queue is full, which throttles the
// producer (typically a tokenizer-side loop) to the speed of the automaton
// workers instead of buffering without bound.  Submission respects context
// cancellation while blocked, and each document's context is checked again
// at dequeue time and periodically mid-pass, so a cancelled request stops
// consuming its shard.
//
// Results come back through a Future: Wait, then Release.  Close drains a
// view gracefully: it rejects new submissions to it and waits until every
// document queued to it has finished.  Closing the last open view stops the
// shards and waits for the workers to exit.
package serve

import (
	"context"
	"errors"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/adapter"
	"repro/internal/alphabet"
	"repro/internal/docstream"
	"repro/internal/engine"
	"repro/internal/query"
)

// ErrClosed is returned by Submit variants after Close has begun.  A
// network front-end maps it to 503 Service Unavailable with a Retry-After
// hint: the process is going away (or swapping pools) and the client
// should try again elsewhere.
var ErrClosed = errors.New("serve: pool closed")

// ErrQueueFull is returned by TrySubmit when the target shard's bounded
// queue is full.  Unlike ErrClosed this is a transient overload signal — a
// network front-end maps it to 429 Too Many Requests so load sheds at the
// edge instead of accumulating blocked handlers.
var ErrQueueFull = errors.New("serve: shard queue full")

// errReleasedTwice is the panic of a Future released more than once, a
// misuse that would hand one future to two documents.
var errReleasedTwice = errors.New("serve: Future released twice")

// Result is the outcome of serving one document: the engine's per-query
// verdict set, or the error that aborted the pass (tokenization failure,
// context cancellation).  Exactly one of Engine and Err is non-nil.
type Result struct {
	ID     string
	Shard  int
	Engine *engine.Result
	Err    error
}

// job is one submitted document, carried by its Future through the shard
// queue.
type job struct {
	id     string
	ctx    context.Context
	format string             // the adapter.New format rd is decoded with
	rd     io.Reader          // decoded on the shard's reusable decoder...
	src    engine.EventSource // ...unless the document is already events
	start  time.Time          // submission time, for the latency histogram
}

// Future resolves to the Result of one submitted document, and is the
// document's slot in its shard's queue.
//
// Futures are recycled.  Each owns its Result and an engine.Result whose
// verdict storage is sized to the engine, so serving a document into one
// allocates nothing, and its owner hands it back with Release once done
// with the Result.  The owner and the shard worker each hold a reference:
// a future released before its document was served — its owner stopped
// waiting — returns to the free list only once the shard has finished
// with it.  A future that is never released is left to the garbage
// collector, and its Result stays valid for as long as it is referenced.
type Future struct {
	pool *Pool         // the view the document was submitted to
	job  job           // the document, until its shard has served it
	done chan struct{} // capacity 1: holds one token once res is set
	refs atomic.Int32  // the owner's and the shard's references
	res  Result
	eng  engine.Result // res.Engine points here once the pass succeeded
}

// Wait blocks until the document has been served or ctx is cancelled.  When
// the document itself failed, the Result carries the error both ways: in
// Result.Err and as Wait's error.  When ctx ends first, Wait returns the
// zero Result and ctx's error; the document may then still be queued or
// on its shard.  The Result, verdicts included, stays valid until Release.
//
//nwvet:hotpath
func (f *Future) Wait(ctx context.Context) (Result, error) {
	select {
	case <-f.done:
		f.done <- struct{}{} // leave the token for any later Wait
		return f.res, f.res.Err
	case <-ctx.Done():
		return Result{}, ctx.Err()
	}
}

// Release hands the future back to its pool: neither the future nor the
// Result it resolved to may be used afterwards, and it must be called at
// most once.  It does not wait for the document; a future whose document
// is still queued or being served is recycled when its shard finishes.
//
//nwvet:hotpath
func (f *Future) Release() {
	switch n := f.refs.Add(-1); {
	case n == 0:
		f.pool.set.recycle(f)
	case n < 0:
		panic(errReleasedTwice)
	}
}

// ShardStats is one shard's live counters: the instantaneous queue depth
// (documents waiting in the bounded queue right now, whichever view they
// were submitted to) next to the view's totals for the shard.  Queue depth
// against capacity is the backpressure signal an operator watches — a
// shard pinned at capacity is the one throttling producers.
type ShardStats struct {
	Shard      int   // shard index
	QueueDepth int   // documents queued at snapshot time, across views
	QueueCap   int   // the bounded queue's capacity
	Served     int64 // documents of this view the shard completed, successfully or not
	Failed     int64 // documents whose Result carries an error
	Events     int64 // events consumed by this shard's successful passes
}

// Stats is a snapshot of one view's aggregate counters, its per-shard
// breakdown, and its per-document latency histogram.  A view's counters
// start at zero: a Swap does not carry them over.
type Stats struct {
	Served   int64 // documents completed, successfully or not
	Failed   int64 // documents whose Result carries an error
	Canceled int64 // subset of Failed: context cancellation or deadline
	Rejected int64 // TrySubmit attempts refused with ErrQueueFull
	Events   int64 // events consumed by successful passes

	Shards  []ShardStats // one entry per shard, in shard order
	Latency LatencyStats // submit-to-result latency, queue wait included
}

// Option configures a Pool's shards.
type Option func(*shardSet)

// WithShards sets the number of shards (default runtime.GOMAXPROCS(0)).
// Each shard is one worker goroutine owning one engine session.
func WithShards(n int) Option {
	return func(s *shardSet) {
		if n > 0 {
			s.numShards = n
		}
	}
}

// WithQueueDepth bounds each shard's submission queue (default 64).  A full
// queue blocks Submit — the backpressure that keeps a fast producer from
// buffering unboundedly ahead of the automaton workers.
func WithQueueDepth(n int) Option {
	return func(s *shardSet) {
		if n > 0 {
			s.depth = n
		}
	}
}

// shardSet is what every view of one pool shares: the shard workers, their
// bounded queues and the future free list.  It lives until its last view
// is closed.
type shardSet struct {
	numShards int
	depth     int

	queues []chan *Future
	free   chan *Future // released futures, ready for reuse

	mu    sync.Mutex // guards views
	views int        // views not yet closed; the queues close at zero
	wg    sync.WaitGroup
}

// shardCounters is one shard's totals for one view, written by the shard
// worker and read by Stats.
type shardCounters struct {
	served atomic.Int64
	failed atomic.Int64
	events atomic.Int64
}

// Pool serves many documents concurrently against one engine's registered
// query set: a view of a set of shards.  Build it with NewPool, submit
// documents from any number of goroutines, hand the shards the next engine
// with Swap, and Close each view to drain it.
type Pool struct {
	set *shardSet
	eng *engine.Engine

	mu       sync.RWMutex   // guards closed against concurrent Submit/Close
	closed   bool           // guarded by mu
	inflight sync.WaitGroup // documents queued to this view and not yet served

	served   atomic.Int64
	failed   atomic.Int64
	canceled atomic.Int64
	rejected atomic.Int64
	events   atomic.Int64

	perShard []shardCounters
	hist     histogram
}

// NewPool starts the shard workers for the engine's registered query set
// and returns the first view of them.  The engine must not have further
// queries registered while the pool is live (shards keep a session of it
// checked out).
func NewPool(eng *engine.Engine, opts ...Option) (*Pool, error) {
	if err := checkEngine(eng); err != nil {
		return nil, err
	}
	s := &shardSet{
		numShards: runtime.GOMAXPROCS(0),
		depth:     64,
		views:     1,
	}
	for _, o := range opts {
		o(s)
	}
	s.queues = make([]chan *Future, s.numShards)
	// Room for a future per queue slot plus one per shard's document in
	// service: what TrySubmit alone can have outstanding.  A future
	// released while the list is full is left to the garbage collector.
	s.free = make(chan *Future, s.numShards*(s.depth+1))
	for i := range s.queues {
		s.queues[i] = make(chan *Future, s.depth)
		s.wg.Add(1)
		go s.worker(i)
	}
	return s.view(eng), nil
}

// NewPoolFromBundle boots a pool straight from a loaded query bundle: a
// fresh engine is built, every bundle query is registered under its bundle
// name, and the shard workers start against it.  Combined with
// query.OpenBundle this is the serving cold-start path that skips per-
// process compilation entirely — the tables may alias a read-only mapped
// region shared across processes.  Result verdicts are indexed in the
// bundle's query order.
func NewPoolFromBundle(b *query.Bundle, opts ...Option) (*Pool, error) {
	if b == nil {
		return nil, errors.New("serve: nil bundle")
	}
	eng := engine.New()
	if _, err := eng.RegisterBundle(b); err != nil {
		return nil, err
	}
	return NewPool(eng, opts...)
}

// checkEngine refuses an engine a pool cannot serve.
func checkEngine(eng *engine.Engine) error {
	if eng == nil {
		return errors.New("serve: nil engine")
	}
	if eng.Len() == 0 {
		return errors.New("serve: engine has no registered queries")
	}
	return nil
}

// view returns a fresh view of the shards serving eng, its counters at
// zero.
func (s *shardSet) view(eng *engine.Engine) *Pool {
	return &Pool{set: s, eng: eng, perShard: make([]shardCounters, len(s.queues))}
}

// Swap returns a new view of p's shards serving eng: the same workers,
// queues and future free list, with its own counters starting at zero.
// Documents submitted to p keep being served against p's engine — a shard
// moves its session to eng only at the first document submitted to the
// new view — so p stays fully usable until it is closed, and the shards
// stop only once every view is.  This is the bundle-reload path: it starts
// no goroutine and makes no queue.  Swap fails with ErrClosed once p's
// Close has begun.
func (p *Pool) Swap(eng *engine.Engine) (*Pool, error) {
	if err := checkEngine(eng); err != nil {
		return nil, err
	}
	// p's read lock keeps p open, so the shards cannot stop before the new
	// view is counted.
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return nil, ErrClosed
	}
	s := p.set
	s.mu.Lock()
	s.views++
	s.mu.Unlock()
	return s.view(eng), nil
}

// Shards returns the number of shards the pool was built with.
func (p *Pool) Shards() int { return len(p.set.queues) }

// QueueCap returns the bounded queue depth each shard was built with.
func (p *Pool) QueueCap() int { return p.set.depth }

// Stats snapshots the view's aggregate counters, the per-shard breakdown,
// and the latency histogram; queue depths count every view's documents.
// It may be called while the pool is serving; the counters are loaded
// independently, so a snapshot taken mid-flight is consistent only to
// within in-progress documents.
func (p *Pool) Stats() Stats {
	queues := p.set.queues
	st := Stats{
		Served:   p.served.Load(),
		Failed:   p.failed.Load(),
		Canceled: p.canceled.Load(),
		Rejected: p.rejected.Load(),
		Events:   p.events.Load(),
		Shards:   make([]ShardStats, len(queues)),
		Latency:  p.hist.snapshot(),
	}
	for i := range queues {
		st.Shards[i] = ShardStats{
			Shard:      i,
			QueueDepth: len(queues[i]),
			QueueCap:   p.set.depth,
			Served:     p.perShard[i].served.Load(),
			Failed:     p.perShard[i].failed.Load(),
			Events:     p.perShard[i].events.Load(),
		}
	}
	return st
}

// Submit queues a document read from r and returns its Future.  The shard
// decodes r with its reusable adapter.New decoder for format ("" native,
// "xml", "json", "trace"), interned against the engine's alphabet.  An
// unknown format fails here, before anything is queued.  Submit blocks
// while the shard's queue is full (backpressure) unless ctx is cancelled
// first, and fails with ErrClosed once Close has begun.
func (p *Pool) Submit(ctx context.Context, id, format string, r io.Reader) (*Future, error) {
	return p.submitReader(ctx, id, format, r, true)
}

// TrySubmit is Submit without the blocking backpressure: when the target
// shard's queue is full it fails immediately with ErrQueueFull instead of
// waiting for a slot.  A network front-end uses it to shed load at the
// edge — ErrQueueFull maps to 429 Too Many Requests, ErrClosed to 503
// Service Unavailable — rather than accumulate blocked handlers.
func (p *Pool) TrySubmit(ctx context.Context, id, format string, r io.Reader) (*Future, error) {
	return p.submitReader(ctx, id, format, r, false)
}

func (p *Pool) submitReader(ctx context.Context, id, format string, r io.Reader, wait bool) (*Future, error) {
	if err := adapter.CheckFormat(format); err != nil {
		return nil, err
	}
	return p.enqueue(job{id: id, ctx: ctx, format: format, rd: r}, wait)
}

// SubmitEvents queues an in-memory event slice as a document.
func (p *Pool) SubmitEvents(ctx context.Context, id string, events []docstream.Event) (*Future, error) {
	return p.enqueue(job{id: id, ctx: ctx, src: engine.Events(events)}, true)
}

// route picks the shard for a document ID: the 64-bit FNV-1a hash of the
// ID (the hash/fnv New64a sum, computed inline so routing allocates
// nothing) modulo the shard count.
func (s *shardSet) route(id string) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= prime64
	}
	return int(h % uint64(len(s.queues)))
}

// enqueue puts a document on a future from the free list and hands the
// future to its shard's queue.
//
//nwvet:hotpath
func (p *Pool) enqueue(j job, wait bool) (*Future, error) {
	if j.ctx == nil {
		j.ctx = context.Background()
	}
	j.start = time.Now()
	// The read lock is held across the (possibly blocking) send so the
	// view cannot be closed — nor the shard queue with it — out from under
	// it; Close's write lock waits for in-flight submissions, and the
	// workers keep draining, so a blocked send always completes or gives up
	// via ctx.
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return nil, ErrClosed
	}
	s := p.set
	f := s.future(p)
	f.job = j
	p.inflight.Add(1)
	queue := s.queues[s.route(j.id)]
	if !wait {
		select {
		case queue <- f:
			return f, nil
		default:
			p.rejected.Add(1)
			p.discard(f)
			return nil, ErrQueueFull
		}
	}
	select {
	case queue <- f:
		return f, nil
	case <-j.ctx.Done():
		p.discard(f)
		return nil, j.ctx.Err()
	}
}

// future takes a released future off the free list, or makes one, for a
// document submitted to p, holding one reference for its owner and one
// for its shard.
func (s *shardSet) future(p *Pool) *Future {
	var f *Future
	select {
	case f = <-s.free:
	default:
		f = &Future{done: make(chan struct{}, 1)}
		f.eng.Verdicts = make([]bool, p.eng.Len())
	}
	if f.refs.Swap(2) != 0 {
		panic("serve: a live Future was handed out again")
	}
	f.pool = p
	return f
}

// discard recycles a future that was never queued.
func (p *Pool) discard(f *Future) {
	p.inflight.Done()
	f.refs.Store(0)
	p.set.recycle(f)
}

// recycle returns a future nothing references any more to the free list:
// its token, sent by the shard unless the future was never queued, is
// taken, and its document, Result and view are dropped so the list keeps
// no document's ID or error, nor a retired engine, alive.
func (s *shardSet) recycle(f *Future) {
	select {
	case <-f.done:
	default:
	}
	f.pool, f.job, f.res = nil, job{}, Result{}
	select {
	case s.free <- f:
	default:
	}
}

// Close drains the view gracefully: new submissions to it fail with
// ErrClosed, and Close returns once every document already queued to it
// has been served.  Closing the last open view of the shards also stops
// them: Close then returns once all shard workers have exited and released
// their sessions.  It is safe to call more than once.
func (p *Pool) Close() error {
	p.mu.Lock()
	first := !p.closed
	p.closed = true
	p.mu.Unlock()
	p.inflight.Wait()
	s := p.set
	s.mu.Lock()
	if first {
		if s.views--; s.views == 0 {
			for _, q := range s.queues {
				close(q)
			}
		}
	}
	stopped := s.views == 0
	s.mu.Unlock()
	if stopped {
		s.wg.Wait()
	}
	return nil
}

// ctxSource aborts a pass when its context is cancelled, checking once per
// checkInterval events so the hot loop stays branch-cheap.
type ctxSource struct {
	ctx context.Context
	src engine.EventSource
	n   int
}

const checkInterval = 1024

func (c *ctxSource) Next() (docstream.Event, error) {
	if c.n%checkInterval == 0 {
		if err := c.ctx.Err(); err != nil {
			return docstream.Event{}, err
		}
	}
	c.n++
	return c.src.Next()
}

// shardWorker is one shard's state: the view whose engine its session
// serves, that session, its decoder per input format, and the cancellation
// wrapper it reuses for every document.
type shardWorker struct {
	shard int
	view  *Pool
	ses   *engine.Session
	decs  decoders
	cs    ctxSource
	csrc  engine.EventSource // &cs, converted to the interface once
}

// worker is one shard: it serves its queue until the last view closes,
// moving its one session and its decoders from view to view.
func (s *shardSet) worker(shard int) {
	defer s.wg.Done()
	w := &shardWorker{shard: shard, decs: decoders{byFormat: make(map[string]adapter.Source)}}
	w.csrc = &w.cs
	for f := range s.queues[shard] {
		w.serve(f)
	}
	if w.ses != nil {
		w.view.eng.Release(w.ses)
	}
}

// bind points the shard at view p: its session moves to p's engine, and
// its decoders are dropped unless p's alphabet interns every label as the
// old one did.
func (w *shardWorker) bind(p *Pool) {
	eng := p.eng
	if w.ses == nil {
		w.ses = eng.Acquire()
	} else {
		eng.Adopt(w.ses)
	}
	if alpha := eng.Alphabet(); w.decs.alpha == nil || !w.decs.alpha.Equal(alpha) {
		clear(w.decs.byFormat)
		w.decs.alpha = alpha
	}
	w.view = p
}

// serve runs one document through the shard's session into its Future's
// own engine Result, resolves the Future and drops the shard's reference
// to it.  Past the decoder a format's first document builds, and the move
// to a new view's engine, nothing allocates.
//
//nwvet:hotpath
func (w *shardWorker) serve(f *Future) {
	p := f.pool
	if p != w.view {
		w.bind(p)
	}
	j := &f.job
	res := Result{ID: j.id, Shard: w.shard}
	// A document cancelled while queued is reported without touching the
	// session.
	res.Err = j.ctx.Err()
	src := j.src
	if res.Err == nil && src == nil {
		src, res.Err = w.decs.open(j.format, j.rd)
	}
	if res.Err == nil {
		w.ses.Reset()
		w.cs = ctxSource{ctx: j.ctx, src: src}
		if res.Err = w.ses.Run(w.csrc, &f.eng); res.Err == nil {
			res.Engine = &f.eng
		}
		w.cs = ctxSource{} // hold no reference to the document past its pass
	}
	counters := &p.perShard[w.shard]
	p.served.Add(1)
	counters.served.Add(1)
	if res.Err != nil {
		p.failed.Add(1)
		counters.failed.Add(1)
		if errors.Is(res.Err, context.Canceled) || errors.Is(res.Err, context.DeadlineExceeded) {
			p.canceled.Add(1)
		}
	} else {
		p.events.Add(int64(res.Engine.Events))
		counters.events.Add(int64(res.Engine.Events))
	}
	p.hist.observe(time.Since(j.start))
	f.job = job{} // hold no reference to the document's reader or context
	f.res = res
	f.done <- struct{}{}
	p.inflight.Done()
	f.Release() // the shard's own reference
}

// decoders is one shard's decoder per input format.  Each is built on the
// shard's first document in its format and Reset for every later one, so
// after that the shard decodes documents without allocating decoder state.
type decoders struct {
	alpha    *alphabet.Alphabet
	byFormat map[string]adapter.Source
}

// open points the format's decoder at r.
func (d *decoders) open(format string, r io.Reader) (engine.EventSource, error) {
	dec := d.byFormat[format]
	if dec == nil {
		var err error
		if dec, err = adapter.New(format, nil, d.alpha); err != nil {
			return nil, err
		}
		d.byFormat[format] = dec
	}
	dec.Reset(r)
	return dec, nil
}
