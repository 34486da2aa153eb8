// Package server is the HTTP front-end over the serve package: a Server
// owns a serve.Pool booted from a serialized query bundle and exposes it to
// network clients — POST /v1/documents for single documents, POST /v1/batch
// for NDJSON streams, GET /v1/status and GET /metrics for observability —
// with zero-downtime bundle reloads.
//
// Reload is RCU-style: the active bundle generation — its bundle, its
// engine's view of the server's one set of shards, its verdict table and
// its counters — lives behind a refcounted poolState.  Request handlers
// acquire a reference for the duration of one document, a reload builds
// the replacement off to the side (open and verify the bundle, register it
// on a fresh engine, serve.Pool.Swap the shards a view of it) and swaps the
// pointer under a mutex, and the old generation is retired only when its
// last in-flight document releases it — in-flight documents finish on the
// engine they were submitted to, new arrivals land on the new one, and no
// request ever observes a torn swap.  A retired generation drains on a
// goroutine of its own, so neither a reload nor a request handler waits
// for documents that other requests left queued to it.  The shard
// goroutines and queues live as long as the Server, so a reload starts
// none and however many generations in-flight requests still hold, the
// shard count and queue capacity stay as configured.  SIGHUP and POST
// /v1/reload both trigger the same path.
//
// Error mapping follows the serve package's sentinels: a full shard queue
// (serve.ErrQueueFull) is transient overload and maps to 429 Too Many
// Requests, a closing pool or shutting-down server (serve.ErrClosed) maps
// to 503 Service Unavailable, and both carry Retry-After so well-behaved
// clients back off instead of hammering.
package server

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/query"
	"repro/internal/serve"
)

// errServerClosed is returned by operations on a Server after Close.
var errServerClosed = errors.New("server: closed")

// Config describes how the Server boots its shards and loads its bundles.
// Every reload reuses the same configuration — only the bundle contents
// change; the shard settings take effect once, at New.
type Config struct {
	// BundlePath is the serialized query bundle (nwtool compile output)
	// the server boots from and re-opens on every reload.
	BundlePath string
	// Source, when set, resolves the bundle path afresh for every load —
	// the hook bundlecache.Source plugs in so a reload re-fetches from the
	// configured peer URL and returns the verified cache entry's path.
	// BundlePath is then only informational (Source's path is opened).
	Source func() (string, error)
	// PublicKey, when set, requires every loaded bundle to carry a valid
	// detached signature (the sibling <path>.sig NWS1 envelope) by this
	// ed25519 key (NWP1 key file or bare 32 bytes).  A missing or invalid
	// signature fails the load — at boot that refuses to start, on reload
	// the old generation keeps serving (verify-before-swap).
	PublicKey []byte
	// Shards is the pool's shard count; 0 means the serve default
	// (runtime.GOMAXPROCS(0)).
	Shards int
	// QueueDepth bounds each shard's submission queue; 0 means the serve
	// default (64).
	QueueDepth int
	// MaxBodyBytes caps a single document body; 0 means 8 MiB.
	MaxBodyBytes int64
}

const defaultMaxBody = 8 << 20

// BundleInfo identifies the active bundle generation: where it came from,
// which reload loaded it, when, and the same machine-readable description
// `nwtool bundle -json` prints for the file on disk — so an operator can
// diff what is loaded against what is deployed.
type BundleInfo struct {
	Path       string           `json:"path"`
	Generation int64            `json:"generation"`
	LoadedAt   time.Time        `json:"loaded_at"`
	Bundle     query.BundleDesc `json:"bundle"`
}

// poolState is one bundle generation: the mapped bundle, the view of the
// shards that serves its engine, and a reference count.  The count starts
// at 1 (the Server's own reference); each in-flight document holds one
// more.  When the count hits zero — the Server dropped it in a swap or
// Close AND the last in-flight document finished — the generation is
// retired: its view is closed, which waits for every document still queued
// to it, and then the bundle is unmapped, so no worker ever touches an
// unmapped table.  Closing the last generation's view stops the shards.
type poolState struct {
	pool     *serve.Pool
	info     BundleInfo
	verdicts verdictTable // the engine's verdict names, pre-encoded
	refs     atomic.Int64
	bundle   *query.Bundle

	// Distribution state for GET /v1/bundle: the generation's raw container
	// bytes (aliasing the bundle's mapped region, valid while a reference
	// is held), the quoted hex content hash served as the ETag, and the
	// detached signature envelope when one was loaded.
	raw  []byte
	etag string
	sig  []byte
}

// release drops one reference.  Dropping the last retires the generation
// on a goroutine of its own: documents an abandoned batch left queued to
// it may wait behind a stalled shard, and the reload or request handler
// that let go of it must not wait with them.
func (st *poolState) release() {
	if st.refs.Add(-1) == 0 {
		go st.retire(unmap)
	}
}

// retire closes the generation's view once its last queued document is
// served, then unmaps its bundle with unmapBundle: the unmap hook as it
// stood when the last reference went, so a retirement that outlives a
// test never reads the hook the next test installs.
func (st *poolState) retire(unmapBundle func(*poolState)) {
	st.pool.Close()
	unmapBundle(st)
}

// unmap closes a released generation's bundle once its view has drained.
// It is a variable so the lifecycle tests can watch when, and how often,
// each generation's bundle closes.
var unmap = func(st *poolState) { st.bundle.Close() }

// Server is the reloadable serving front-end.  Build it with New, mount
// Handler on an http.Server, call Reload on SIGHUP, and Close on shutdown.
type Server struct {
	cfg   Config
	start time.Time

	// reloadMu serializes Reload calls so two concurrent reloads cannot
	// interleave their swap and leak a generation.  It is never held
	// together with mu's critical sections except at the swap itself.
	reloadMu sync.Mutex

	mu     sync.Mutex
	cur    *poolState // guarded by mu
	closed bool       // guarded by mu

	nextID  atomic.Int64 // fallback document IDs when the client sends none
	reloads atomic.Int64
	rates   rateTracker
}

// New opens the configured bundle, starts the shards with generation 1's
// engine, and returns the Server ready to serve.
func New(cfg Config) (*Server, error) {
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = defaultMaxBody
	}
	s := &Server{cfg: cfg, start: time.Now()}
	st, err := s.load(1, nil)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.cur = st
	s.mu.Unlock()
	return s, nil
}

// load builds one complete generation from the configured bundle path: the
// bundle is opened (its content hash verified by the format layer), its
// signature checked when a public key is configured, and registered on a
// fresh engine, which the shards are handed as a view swapped from cur —
// or, at boot (cur nil), started with.  All of it happens before any swap,
// so a bad, tampered, or unsigned bundle fails the reload and leaves the
// old generation serving (verify-before-swap).
func (s *Server) load(gen int64, cur *serve.Pool) (*poolState, error) {
	path := s.cfg.BundlePath
	if s.cfg.Source != nil {
		var err error
		if path, err = s.cfg.Source(); err != nil {
			return nil, fmt.Errorf("server: resolve bundle: %w", err)
		}
	}
	b, err := query.OpenBundle(path)
	if err != nil {
		return nil, fmt.Errorf("server: open bundle: %w", err)
	}
	sig, err := os.ReadFile(path + ".sig")
	if err != nil && !os.IsNotExist(err) {
		b.Close()
		return nil, fmt.Errorf("server: read bundle signature: %w", err)
	}
	if len(s.cfg.PublicKey) > 0 {
		if sig == nil {
			b.Close()
			return nil, fmt.Errorf("server: bundle %s has no detached signature (%s.sig) and a public key is configured", path, path)
		}
		if err := b.Verify(s.cfg.PublicKey, sig); err != nil {
			b.Close()
			return nil, fmt.Errorf("server: verify bundle signature: %w", err)
		}
	}
	eng := engine.New()
	if _, err := eng.RegisterBundle(b); err != nil {
		b.Close()
		return nil, fmt.Errorf("server: register bundle: %w", err)
	}
	var pool *serve.Pool
	if cur != nil {
		pool, err = cur.Swap(eng)
	} else {
		var opts []serve.Option
		if s.cfg.Shards > 0 {
			opts = append(opts, serve.WithShards(s.cfg.Shards))
		}
		if s.cfg.QueueDepth > 0 {
			opts = append(opts, serve.WithQueueDepth(s.cfg.QueueDepth))
		}
		pool, err = serve.NewPool(eng, opts...)
	}
	if err != nil {
		b.Close()
		return nil, fmt.Errorf("server: boot pool: %w", err)
	}
	desc := query.Describe(b)
	st := &poolState{
		pool:     pool,
		bundle:   b,
		verdicts: newVerdictTable(eng.Names()),
		raw:      b.Raw(),
		etag:     `"` + desc.ContentHash + `"`,
		sig:      sig,
		info: BundleInfo{
			Path:       path,
			Generation: gen,
			LoadedAt:   time.Now(),
			Bundle:     desc,
		},
	}
	st.refs.Store(1)
	return st, nil
}

// acquire takes a reference on the current generation for one document.
// The increment happens under the same mutex as the swap, so a handler can
// never resurrect a generation whose count already reached zero.
func (s *Server) acquire() (*poolState, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.cur == nil {
		return nil, errServerClosed
	}
	s.cur.refs.Add(1)
	return s.cur, nil
}

// Reload opens the configured bundle path again, hands the shards a fresh
// engine for it, and atomically swaps the new generation in.  In-flight
// documents finish on the old engine, whose view is closed and bundle
// unmapped once the last of them releases it and its queued documents are
// served; Reload does not wait for that.  On any error the old generation
// keeps serving untouched.
func (s *Server) Reload() (BundleInfo, error) {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()

	cur, err := s.acquire()
	if err != nil {
		return BundleInfo{}, err
	}
	next, err := s.load(cur.info.Generation+1, cur.pool)
	cur.release()
	if err != nil {
		return BundleInfo{}, err
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		next.release()
		return BundleInfo{}, errServerClosed
	}
	old := s.cur
	s.cur = next
	s.mu.Unlock()

	s.reloads.Add(1)
	if old != nil {
		old.release()
	}
	return next.info, nil
}

// Close drops the Server's own reference on the active generation and
// rejects all further work.  The generation's view drains gracefully once
// in-flight documents release their references — Close itself waits for
// that drain when no request holds one — and the shards stop with the
// last generation's view.  Safe to call twice.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	old := s.cur
	s.cur = nil
	s.mu.Unlock()
	if old != nil && old.refs.Add(-1) == 0 {
		old.retire(unmap)
	}
	return nil
}

// BundleInfo reports the active bundle generation's identity.
func (s *Server) BundleInfo() (BundleInfo, error) {
	st, err := s.acquire()
	if err != nil {
		return BundleInfo{}, err
	}
	defer st.release()
	return st.info, nil
}

// Stats snapshots the active generation's counters.  Counters are per
// generation: a reload starts them fresh, the way a restarted process
// would, and the generation number in the status document tells scrapers
// when that happened.  Queue depths are the exception: the shards' queues
// are shared, so a depth counts every generation's waiting documents.
func (s *Server) Stats() (serve.Stats, error) {
	st, err := s.acquire()
	if err != nil {
		return serve.Stats{}, err
	}
	defer st.release()
	return st.pool.Stats(), nil
}

// rateTracker derives an events-per-second rate from successive cumulative
// counter observations — the instantaneous rate between the last two
// scrapes of /v1/status or /metrics.
type rateTracker struct {
	mu    sync.Mutex
	last  time.Time // guarded by mu
	lastN int64     // guarded by mu
	rate  float64   // guarded by mu
}

// observe feeds one cumulative sample and returns the current rate.  The
// first sample (and any sample after the counter went backwards, i.e. a
// reload reset) re-bases the tracker and reports the previous rate.
func (r *rateTracker) observe(now time.Time, n int64) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.last.IsZero() && n >= r.lastN {
		if dt := now.Sub(r.last).Seconds(); dt > 0 {
			r.rate = float64(n-r.lastN) / dt
		}
	}
	r.last = now
	r.lastN = n
	return r.rate
}
