// Package serve is the multi-document serving layer on top of the engine
// package: where an engine.Engine answers N registered queries over one
// document in one pass, a serve.Pool answers them over a stream of many
// documents concurrently, one engine session per shard.
//
// A Pool owns a fixed set of shards (default runtime.GOMAXPROCS(0)), each a
// worker goroutine that has checked one engine.Session out of the shared
// engine for its lifetime and holds one reusable decoder per input format —
// the interning tokenizer for native documents, an internal/adapter scanner
// for each of xml, json and trace once one arrives — and futures are
// recycled, so in the steady state Submit, Wait and Release of a document
// allocate nothing.  Incoming documents are routed to shards by the FNV-1a
// hash of their ID — all submissions of one document ID serialize on one
// shard, keeping per-document ordering — or round-robined under
// AffinityNone for maximal balance when IDs are skewed.
//
// Backpressure is a bounded queue per shard: Submit blocks once the target
// shard's queue is full, which throttles the producer (typically a
// tokenizer-side loop) to the speed of the automaton workers instead of
// buffering without bound.  Submission respects context cancellation while
// blocked, and each document's context is checked again at dequeue time and
// periodically mid-pass, so a cancelled request stops consuming its shard.
//
// Results come back through a Future (Wait, then Release) and, when the
// pool was built WithOnResult, through a callback invoked on the shard
// worker — aggregation loops need no per-document future bookkeeping.
// Close drains gracefully: it rejects new submissions, lets every queued
// document finish, and waits for the workers to exit.
package serve

import (
	"context"
	"errors"
	"fmt"
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

// Affinity selects how documents are routed to shards.
type Affinity int

const (
	// AffinityHash routes each document by the FNV-1a hash of its ID, so
	// repeated submissions of one ID always serialize on the same shard.
	AffinityHash Affinity = iota
	// AffinityNone ignores IDs and round-robins documents across shards —
	// the best balance when IDs are few or skewed.
	AffinityNone
)

// String names the affinity the way the -affinity CLI flags spell it.
func (a Affinity) String() string {
	if a == AffinityNone {
		return "none"
	}
	return "hash"
}

// ParseAffinity converts a CLI spelling ("hash" or "none") to an Affinity.
func ParseAffinity(s string) (Affinity, error) {
	switch s {
	case "hash":
		return AffinityHash, nil
	case "none":
		return AffinityNone, nil
	}
	return 0, fmt.Errorf("serve: unknown affinity %q (want \"hash\" or \"none\")", s)
}

// Result is the outcome of serving one document: the engine's per-query
// verdict set, or the error that aborted the pass (tokenization failure,
// context cancellation).  Exactly one of Engine and Err is non-nil.
type Result struct {
	ID     string
	Shard  int
	Engine *engine.Result
	Err    error
}

// Future resolves to the Result of one submitted document.
//
// Futures are recycled.  Each owns its Result and an engine.Result whose
// verdict storage is sized to the pool's engine, so serving a document
// into one allocates nothing, and its owner hands it back with Release
// once done with the Result.  The owner and the shard worker each hold a
// reference: a future released before its document was served — its owner
// stopped waiting — returns to the pool only once the shard has finished
// with it.  A future that is never released is left to the garbage
// collector, and its Result stays valid for as long as it is referenced.
type Future struct {
	pool *Pool
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
		f.pool.recycle(f)
	case n < 0:
		panic(errReleasedTwice)
	}
}

// ShardStats is one shard's live counters: the instantaneous queue depth
// (documents waiting in the bounded queue right now) next to the shard's
// lifetime totals.  Queue depth against capacity is the backpressure
// signal an operator watches — a shard pinned at capacity is the one
// throttling producers.
type ShardStats struct {
	Shard      int   // shard index
	QueueDepth int   // documents queued at snapshot time
	QueueCap   int   // the bounded queue's capacity
	Served     int64 // documents this shard completed, successfully or not
	Failed     int64 // documents whose Result carries an error
	Events     int64 // events consumed by this shard's successful passes
}

// Stats is a snapshot of the pool's aggregate counters, its per-shard
// breakdown, and the per-document latency histogram.
type Stats struct {
	Served   int64 // documents completed, successfully or not
	Failed   int64 // documents whose Result carries an error
	Canceled int64 // subset of Failed: context cancellation or deadline
	Rejected int64 // TrySubmit attempts refused with ErrQueueFull
	Events   int64 // events consumed by successful passes

	Shards  []ShardStats // one entry per shard, in shard order
	Latency LatencyStats // submit-to-result latency, queue wait included
}

// Option configures a Pool.
type Option func(*Pool)

// WithShards sets the number of shards (default runtime.GOMAXPROCS(0)).
// Each shard is one worker goroutine owning one engine session.
func WithShards(n int) Option {
	return func(p *Pool) {
		if n > 0 {
			p.numShards = n
		}
	}
}

// WithQueueDepth bounds each shard's submission queue (default 64).  A full
// queue blocks Submit — the backpressure that keeps a fast producer from
// buffering unboundedly ahead of the automaton workers.
func WithQueueDepth(n int) Option {
	return func(p *Pool) {
		if n > 0 {
			p.depth = n
		}
	}
}

// WithAffinity selects the document-to-shard routing (default AffinityHash).
func WithAffinity(a Affinity) Option {
	return func(p *Pool) { p.affinity = a }
}

// WithOnResult installs a callback invoked on the shard worker for every
// completed document, before the document's Future resolves.  It must be
// safe for concurrent calls from different shards.  The Result's verdicts
// are the Future's own, valid until the Future is released.
func WithOnResult(fn func(Result)) Option {
	return func(p *Pool) { p.onResult = fn }
}

// job is one queued document.
type job struct {
	id     string
	ctx    context.Context
	format string             // the adapter.New format rd is decoded with
	rd     io.Reader          // decoded on the shard's reusable decoder...
	src    engine.EventSource // ...unless the document is already events
	fut    *Future
	start  time.Time // submission time, for the latency histogram
}

// shardCounters is one shard's lifetime totals, owned by the shard worker
// (written there, read by Stats).
type shardCounters struct {
	served atomic.Int64
	failed atomic.Int64
	events atomic.Int64
}

// Pool serves many documents concurrently against one engine's registered
// query set.  Build it with NewPool, submit documents from any number of
// goroutines, and Close it to drain.
type Pool struct {
	eng       *engine.Engine
	numShards int
	depth     int
	affinity  Affinity
	onResult  func(Result)

	shards []chan job
	rr     atomic.Uint64 // round-robin cursor for AffinityNone
	free   chan *Future  // released futures, ready for reuse

	mu     sync.RWMutex // guards the fields below against concurrent Submit/Close
	closed bool         // guarded by mu
	wg     sync.WaitGroup

	served   atomic.Int64
	failed   atomic.Int64
	canceled atomic.Int64
	rejected atomic.Int64
	events   atomic.Int64

	perShard []shardCounters
	hist     histogram
}

// NewPool starts the shard workers for the engine's registered query set.
// The engine must not have further queries registered while the pool is
// live (sessions are checked out for the workers' lifetime).
func NewPool(eng *engine.Engine, opts ...Option) (*Pool, error) {
	if eng == nil {
		return nil, errors.New("serve: nil engine")
	}
	if eng.Len() == 0 {
		return nil, errors.New("serve: engine has no registered queries")
	}
	p := &Pool{
		eng:       eng,
		numShards: runtime.GOMAXPROCS(0),
		depth:     64,
		affinity:  AffinityHash,
	}
	for _, o := range opts {
		o(p)
	}
	p.shards = make([]chan job, p.numShards)
	p.perShard = make([]shardCounters, p.numShards)
	// Room for a future per queue slot plus one per shard's document in
	// service: what TrySubmit alone can have outstanding.  A future
	// released while the list is full is left to the garbage collector.
	p.free = make(chan *Future, p.numShards*(p.depth+1))
	for i := range p.shards {
		p.shards[i] = make(chan job, p.depth)
		p.wg.Add(1)
		go p.worker(i)
	}
	return p, nil
}

// NewPoolFromBundle boots a pool straight from a loaded query bundle: a
// fresh engine is built, every bundle query is registered under its bundle
// name, and the shard workers start against it.  Combined with
// query.OpenBundle this is the serving cold-start path that skips per-
// process compilation entirely — the tables may alias a read-only mapped
// region shared across processes.  Use Engine to reach the underlying
// engine (verdict names, alphabet) for result aggregation.
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

// Engine returns the engine the pool serves against.
func (p *Pool) Engine() *engine.Engine { return p.eng }

// Shards returns the number of shards the pool was built with.
func (p *Pool) Shards() int { return p.numShards }

// QueueCap returns the bounded queue depth each shard was built with.
func (p *Pool) QueueCap() int { return p.depth }

// Affinity returns the document-to-shard routing the pool was built with.
func (p *Pool) Affinity() Affinity { return p.affinity }

// Stats snapshots the aggregate counters, the per-shard breakdown, and the
// latency histogram.  It may be called while the pool is serving; the
// counters are loaded independently, so a snapshot taken mid-flight is
// consistent only to within in-progress documents.
func (p *Pool) Stats() Stats {
	st := Stats{
		Served:   p.served.Load(),
		Failed:   p.failed.Load(),
		Canceled: p.canceled.Load(),
		Rejected: p.rejected.Load(),
		Events:   p.events.Load(),
		Shards:   make([]ShardStats, len(p.shards)),
		Latency:  p.hist.snapshot(),
	}
	for i := range p.shards {
		st.Shards[i] = ShardStats{
			Shard:      i,
			QueueDepth: len(p.shards[i]),
			QueueCap:   p.depth,
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

// route picks the shard for a document ID: round-robin, or the 64-bit
// FNV-1a hash of the ID (the hash/fnv New64a sum, computed inline so routing
// allocates nothing) modulo the shard count.
func (p *Pool) route(id string) int {
	if p.affinity == AffinityNone || len(p.shards) == 1 {
		return int((p.rr.Add(1) - 1) % uint64(len(p.shards)))
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= prime64
	}
	return int(h % uint64(len(p.shards)))
}

// enqueue hands a document to its shard's queue with a future from the
// free list.
//
//nwvet:hotpath
func (p *Pool) enqueue(j job, wait bool) (*Future, error) {
	if j.ctx == nil {
		j.ctx = context.Background()
	}
	j.start = time.Now()
	// The read lock is held across the (possibly blocking) send so Close
	// cannot close the shard channel out from under it; Close's write lock
	// waits for in-flight submissions, and the workers keep draining, so a
	// blocked send always completes or gives up via ctx.
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return nil, ErrClosed
	}
	j.fut = p.future()
	shard := p.shards[p.route(j.id)]
	if !wait {
		select {
		case shard <- j:
			return j.fut, nil
		default:
			p.rejected.Add(1)
			p.discard(j.fut)
			return nil, ErrQueueFull
		}
	}
	select {
	case shard <- j:
		return j.fut, nil
	case <-j.ctx.Done():
		p.discard(j.fut)
		return nil, j.ctx.Err()
	}
}

// future takes a released future off the free list, or makes one, holding
// one reference for its owner and one for its shard.
func (p *Pool) future() *Future {
	var f *Future
	select {
	case f = <-p.free:
	default:
		f = &Future{pool: p, done: make(chan struct{}, 1)}
		f.eng.Verdicts = make([]bool, p.eng.Len())
	}
	if f.refs.Swap(2) != 0 {
		panic("serve: a live Future was handed out again")
	}
	return f
}

// discard recycles a future that was never queued.
func (p *Pool) discard(f *Future) {
	f.refs.Store(0)
	p.recycle(f)
}

// recycle returns a future nothing references any more to the free list:
// its token, sent by the shard unless the future was never queued, is
// taken, and its Result is dropped so the list keeps no document's ID or
// error alive.
func (p *Pool) recycle(f *Future) {
	select {
	case <-f.done:
	default:
	}
	f.res = Result{}
	select {
	case p.free <- f:
	default:
	}
}

// Close drains the pool gracefully: new submissions fail with ErrClosed,
// every already-queued document is served to completion, and Close returns
// once all shard workers have exited and released their sessions.  It is
// safe to call more than once.
func (p *Pool) Close() error {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		for _, sh := range p.shards {
			close(sh)
		}
	}
	p.mu.Unlock()
	p.wg.Wait()
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

// shardWorker is one shard's state: the engine session it checked out for
// its lifetime, its decoder per input format, its counters, and the
// cancellation wrapper it reuses for every document.
type shardWorker struct {
	p        *Pool
	shard    int
	ses      *engine.Session
	decs     decoders
	counters *shardCounters
	cs       ctxSource
	csrc     engine.EventSource // &cs, converted to the interface once
}

// worker is one shard: it checks a session out of the engine once, keeps
// one decoder per input format, and serves its queue until Close.
func (p *Pool) worker(shard int) {
	defer p.wg.Done()
	w := &shardWorker{
		p:        p,
		shard:    shard,
		ses:      p.eng.Acquire(),
		decs:     decoders{alpha: p.eng.Alphabet(), byFormat: make(map[string]adapter.Source)},
		counters: &p.perShard[shard],
	}
	w.csrc = &w.cs
	defer p.eng.Release(w.ses)
	for j := range p.shards[shard] {
		w.serve(j)
	}
}

// serve runs one document through the shard's session into its Future's
// own engine Result, resolves the Future and drops the shard's reference
// to it.  Past the decoder a format's first document builds, nothing
// allocates.
//
//nwvet:hotpath
func (w *shardWorker) serve(j job) {
	p := w.p
	f := j.fut
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
	p.served.Add(1)
	w.counters.served.Add(1)
	if res.Err != nil {
		p.failed.Add(1)
		w.counters.failed.Add(1)
		if errors.Is(res.Err, context.Canceled) || errors.Is(res.Err, context.DeadlineExceeded) {
			p.canceled.Add(1)
		}
	} else {
		p.events.Add(int64(res.Engine.Events))
		w.counters.events.Add(int64(res.Engine.Events))
	}
	p.hist.observe(time.Since(j.start))
	if p.onResult != nil {
		p.onResult(res)
	}
	f.res = res
	f.done <- struct{}{}
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
