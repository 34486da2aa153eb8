// Package bundlecache is the self-provisioning side of fleet bundle
// distribution (docs/DISTRIBUTION.md): a content-hash-keyed on-disk cache
// of hashed NWQ1 bundles plus an HTTP fetcher over a peer's GET /v1/bundle.
//
// The cache directory holds one file per artifact, named by its hex
// content hash (<hash>.nwq, with an optional sibling <hash>.nwq.sig for
// the detached signature), so entries are immutable: a file either holds
// exactly the bytes its name hashes to or it is corrupt, and every open
// re-verifies before handing the path out.  Writes go through a temp file
// in the same directory and an atomic rename into place, so a crashed or
// racing writer can never leave a half-written entry under a valid name —
// concurrent writers of the same hash simply rename identical bytes over
// each other.  A small "latest" state file records the most recently
// fetched hash, which is what lets a restarted worker boot from its warm
// cache before the network is up.
//
// Source ties the two together for internal/server: its Fetch method is
// shaped to drop into server.Config.Source, fetching the peer's current
// bundle (a conditional request when the cache already holds one),
// verifying hash — and signature, when a public key is pinned — before
// anything lands in the cache, and falling back to the cached copy only
// on network failure, never on verification failure: a peer serving
// tampered bytes is an error a reload must surface, not silently paper
// over with stale data (the server's verify-before-swap then keeps the
// old generation live).
package bundlecache

import (
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/query/format"
)

// Cache is a content-hash-keyed store of verified NWQ1 bundles on
// disk.  Safe for concurrent use by multiple goroutines (and, thanks to
// atomic renames of immutable content, by multiple processes sharing the
// directory).
type Cache struct {
	dir string

	mu sync.Mutex // serializes latest-file updates within this process
}

// Open creates (if needed) and opens a cache directory.
func Open(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("bundlecache: %w", err)
	}
	return &Cache{dir: dir}, nil
}

// entryPath returns the on-disk path of a hash's entry.
func (c *Cache) entryPath(sum [format.HashSize]byte) string {
	return filepath.Join(c.dir, hex.EncodeToString(sum[:])+".nwq")
}

// latestPath is the state file recording the most recently stored hash.
func (c *Cache) latestPath() string { return filepath.Join(c.dir, "latest") }

// put stores a top-level artifact under its own content hash and records
// it as the latest entry.  The bytes must be a hashed bundle, verified
// against their header hash by format.ContentHash; the entry file appears
// atomically or not at all.  Returns the entry path and the hash it was
// stored under.
func (c *Cache) put(data []byte) (string, [format.HashSize]byte, error) {
	sum, err := format.ContentHash(data)
	if err != nil {
		return "", sum, fmt.Errorf("bundlecache: refusing to store: %w", err)
	}
	path := c.entryPath(sum)
	if err := writeAtomic(path, data); err != nil {
		return "", sum, fmt.Errorf("bundlecache: %w", err)
	}
	c.mu.Lock()
	err = writeAtomic(c.latestPath(), []byte(hex.EncodeToString(sum[:])))
	c.mu.Unlock()
	if err != nil {
		return "", sum, fmt.Errorf("bundlecache: record latest: %w", err)
	}
	return path, sum, nil
}

// putSignature stores a detached signature envelope next to an existing
// entry, after checking it actually verifies that entry's hash under pub.
func (c *Cache) putSignature(sum [format.HashSize]byte, pub, envelope []byte) error {
	if err := format.VerifyHash(pub, envelope, sum); err != nil {
		return fmt.Errorf("bundlecache: refusing to store signature: %w", err)
	}
	if err := writeAtomic(c.entryPath(sum)+".sig", envelope); err != nil {
		return fmt.Errorf("bundlecache: %w", err)
	}
	return nil
}

// Get returns the path of the entry for sum after re-reading and
// re-verifying its bytes — a cache hit is never trusted blind, so a
// corrupted entry (flipped bit, truncation, wrong-name file) is reported
// (wrapping format.ErrHashMismatch for content damage) instead of handed
// to mmap.  os.IsNotExist distinguishes a miss from damage.
//
//nwvet:oracle TestDistributionRefusesToSwap reads the cached entry through it
func (c *Cache) Get(sum [format.HashSize]byte) (string, error) {
	path := c.entryPath(sum)
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	got, err := format.ContentHash(data)
	if err != nil {
		return "", fmt.Errorf("bundlecache: entry %s: %w", filepath.Base(path), err)
	}
	if got != sum {
		return "", fmt.Errorf("bundlecache: entry %s holds bytes hashing to %x: %w",
			filepath.Base(path), got, format.ErrHashMismatch)
	}
	return path, nil
}

// latest returns the hash recorded by the most recent put, or ok=false
// when the cache has never stored anything (or the state file is
// damaged — a warm boot then just falls through to a cold fetch).
func (c *Cache) latest() (sum [format.HashSize]byte, ok bool) {
	b, err := os.ReadFile(c.latestPath())
	if err != nil {
		return sum, false
	}
	raw, err := hex.DecodeString(strings.TrimSpace(string(b)))
	if err != nil || len(raw) != format.HashSize {
		return sum, false
	}
	copy(sum[:], raw)
	return sum, true
}

// writeAtomic writes data to path via a same-directory temp file and
// rename, so path never holds a partial write.
func writeAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// client fetches every bundle and signature, each request bounded to 30
// seconds.
var client = &http.Client{Timeout: 30 * time.Second}

// maxFetch caps a fetched bundle at 1 GiB: the peer's body is read whole
// before it is verified, so its size is checked first.  A variable so a
// test can lower it.
var maxFetch int64 = 1 << 30

// Source fetches a peer's current bundle into a Cache.  Its Fetch method
// has exactly the shape of server.Config.Source, so an nwserved booted
// with -queryset-url resolves every (re)load through it.
type Source struct {
	url       string
	cache     *Cache
	publicKey []byte

	mu     sync.Mutex
	flight *flight // in-progress fetch, nil when idle
}

// flight is one in-progress fetch shared by every concurrent caller —
// a hand-rolled singleflight, so a thundering herd of reloads costs one
// network round-trip.
type flight struct {
	done chan struct{}
	path string
	err  error
}

// NewSource creates a Source fetching url (the peer's GET /v1/bundle
// endpoint) into cache.  A non-empty publicKey pins the publisher: every
// fetched bundle must come with a valid detached signature (GET
// /v1/bundle.sig) by this ed25519 key, checked before the bytes enter the
// cache.
func NewSource(url string, cache *Cache, publicKey []byte) *Source {
	return &Source{url: url, cache: cache, publicKey: publicKey}
}

// Fetch returns the path of a verified cache entry holding the peer's
// current bundle.  Concurrent calls coalesce into one network fetch.  On
// network failure the warm cache's latest verified entry is returned
// instead (a restarted worker boots offline); verification failures —
// hash mismatch, missing or bad signature — are returned as errors, never
// masked by the fallback.
func (s *Source) Fetch() (string, error) {
	s.mu.Lock()
	if f := s.flight; f != nil {
		s.mu.Unlock()
		<-f.done
		return f.path, f.err
	}
	f := &flight{done: make(chan struct{})}
	s.flight = f
	s.mu.Unlock()

	f.path, f.err = s.fetch()
	close(f.done)

	s.mu.Lock()
	s.flight = nil
	s.mu.Unlock()
	return f.path, f.err
}

// fetch runs one fetch: conditional GET against the cached latest entry,
// verify, store, return the entry path.
func (s *Source) fetch() (string, error) {
	req, err := http.NewRequest(http.MethodGet, s.url, nil)
	if err != nil {
		return "", fmt.Errorf("bundlecache: %w", err)
	}
	var cached string
	var cacheErr error // why the warm cache is unusable, for diagnosis
	if latest, ok := s.cache.latest(); ok {
		// Only offer an ETag we can actually serve from: a damaged entry
		// must not produce a 304 pointing at bytes we cannot verify.
		if path, err := s.cache.Get(latest); err == nil {
			cached = path
			req.Header.Set("If-None-Match", `"`+hex.EncodeToString(latest[:])+`"`)
		} else if !os.IsNotExist(err) {
			cacheErr = err
		}
	}
	resp, err := client.Do(req)
	if err != nil {
		if cached != "" {
			return cached, nil // offline with a warm cache: keep serving it
		}
		if cacheErr != nil {
			// Offline AND the cached entry is damaged: report the damage —
			// it is the actionable half of the failure.
			return "", fmt.Errorf("bundlecache: fetch %s failed (%v) and the warm cache is unusable: %w", s.url, err, cacheErr)
		}
		return "", fmt.Errorf("bundlecache: fetch %s: %w", s.url, err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusNotModified:
		return cached, nil
	case http.StatusOK:
	default:
		if cached != "" && resp.StatusCode >= 500 {
			return cached, nil // peer is unhealthy, not lying: warm cache is fine
		}
		return "", fmt.Errorf("bundlecache: fetch %s: %s", s.url, resp.Status)
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxFetch+1))
	if err != nil {
		if cached != "" {
			return cached, nil
		}
		return "", fmt.Errorf("bundlecache: read %s: %w", s.url, err)
	}
	if int64(len(data)) > maxFetch {
		return "", fmt.Errorf("bundlecache: bundle from %s exceeds %d bytes", s.url, maxFetch)
	}

	// From here on errors are the peer's content failing verification:
	// no warm-cache fallback, the caller must see them.
	sum, err := format.ContentHash(data)
	if err != nil {
		return "", fmt.Errorf("bundlecache: bundle from %s: %w", s.url, err)
	}
	if etag := strings.Trim(resp.Header.Get("ETag"), `"`); etag != "" && etag != hex.EncodeToString(sum[:]) {
		return "", fmt.Errorf("bundlecache: bundle from %s hashes to %x, ETag declares %s",
			s.url, sum, etag)
	}
	var sig []byte
	if len(s.publicKey) > 0 {
		if sig, err = s.fetchSignature(); err != nil {
			return "", err
		}
		if err := format.VerifyHash(s.publicKey, sig, sum); err != nil {
			return "", fmt.Errorf("bundlecache: bundle from %s: %w", s.url, err)
		}
	}
	path, _, err := s.cache.put(data)
	if err != nil {
		return "", err
	}
	if sig != nil {
		if err := s.cache.putSignature(sum, s.publicKey, sig); err != nil {
			return "", err
		}
	}
	return path, nil
}

// fetchSignature fetches the detached envelope from the sibling
// /v1/bundle.sig endpoint of the bundle URL.
func (s *Source) fetchSignature() ([]byte, error) {
	url := s.url + ".sig"
	resp, err := client.Get(url)
	if err != nil {
		return nil, fmt.Errorf("bundlecache: fetch %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("bundlecache: fetch %s: %s (a public key is pinned, the peer must serve a signature)", url, resp.Status)
	}
	sig, err := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if err != nil {
		return nil, fmt.Errorf("bundlecache: read %s: %w", url, err)
	}
	return sig, nil
}
