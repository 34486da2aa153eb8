package bundlecache

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/query/format"
)

// container builds a small VersionHashed container whose payload makes
// its content hash unique per call site.
func container(t testing.TB, payload string) []byte {
	t.Helper()
	w := format.NewWriter(format.KindBundle)
	w.SetVersion(format.VersionHashed)
	w.Bytes(1, []byte(payload))
	return w.Finish()
}

// TestPutGetLatest pins the basic cache contract: Put stores under the
// content hash, Get re-verifies and returns the path, Latest survives a
// re-open of the same directory (the warm-boot case).
func TestPutGetLatest(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	data := container(t, "one")
	path, sum, err := c.put(data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Get(sum)
	if err != nil || got != path {
		t.Fatalf("Get = %q, %v; want %q", got, err, path)
	}
	onDisk, err := os.ReadFile(got)
	if err != nil || string(onDisk) != string(data) {
		t.Fatalf("entry bytes differ from what was Put")
	}
	if latest, ok := c.latest(); !ok || latest != sum {
		t.Fatalf("Latest = %x, %v; want %x", latest, ok, sum)
	}

	// A second artifact becomes latest; the first stays retrievable.
	data2 := container(t, "two")
	_, sum2, err := c.put(data2)
	if err != nil {
		t.Fatal(err)
	}
	if latest, _ := c.latest(); latest != sum2 {
		t.Fatal("Put did not advance latest")
	}
	if _, err := c.Get(sum); err != nil {
		t.Fatalf("older entry lost after a newer Put: %v", err)
	}

	// Re-open: the state file on disk is the whole warm cache.
	c2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if latest, ok := c2.latest(); !ok || latest != sum2 {
		t.Fatal("warm re-open lost the latest entry")
	}
	if _, err := c2.Get(sum2); err != nil {
		t.Fatalf("warm re-open cannot Get the latest entry: %v", err)
	}
}

// TestGetRejectsTamperedEntry: a cache hit is never trusted blind — a
// flipped bit in the entry file surfaces as ErrHashMismatch, and a miss
// stays distinguishable via os.IsNotExist.
func TestGetRejectsTamperedEntry(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	data := container(t, "tamper me")
	path, sum, err := c.put(data)
	if err != nil {
		t.Fatal(err)
	}
	mut := append([]byte(nil), data...)
	mut[len(mut)-1] ^= 1
	if err := os.WriteFile(path, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(sum); !errors.Is(err, format.ErrHashMismatch) {
		t.Fatalf("tampered entry: Get = %v, want ErrHashMismatch", err)
	}
	var missing [format.HashSize]byte
	if _, err := c.Get(missing); !os.IsNotExist(err) {
		t.Fatalf("missing entry: Get = %v, want IsNotExist", err)
	}
}

// TestPutRejectsGarbage: bytes that are not a hashed bundle never enter
// the cache.
func TestPutRejectsGarbage(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]byte{nil, []byte("not a container"), container(t, "x")[:10]} {
		if _, _, err := c.put(bad); err == nil {
			t.Fatalf("Put accepted %d bytes of garbage", len(bad))
		}
	}
	// A tampered hashed container is garbage too.
	mut := container(t, "y")
	mut[len(mut)-1] ^= 1
	if _, _, err := c.put(mut); !errors.Is(err, format.ErrHashMismatch) {
		t.Fatalf("Put on tampered container = %v, want ErrHashMismatch", err)
	}
	// So is the same container under an unhashed version-1 header: it has
	// no content hash to be stored under.
	w := format.NewWriter(format.KindBundle)
	w.Bytes(1, []byte("z"))
	if _, _, err := c.put(w.Finish()); !errors.Is(err, format.ErrUnhashed) {
		t.Fatalf("Put on a version-1 container = %v, want ErrUnhashed", err)
	}
}

// TestPutSignature: only envelopes that actually verify the entry's hash
// under the given key are stored.
func TestPutSignature(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	privFile, pubFile, err := format.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	priv, _ := format.ParsePrivateKey(privFile)
	data := container(t, "signed")
	path, sum, err := c.put(data)
	if err != nil {
		t.Fatal(err)
	}
	sig, err := format.Sign(priv, data)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.putSignature(sum, pubFile, sig); err != nil {
		t.Fatalf("putSignature: %v", err)
	}
	if _, err := os.Stat(path + ".sig"); err != nil {
		t.Fatalf("signature sibling not written: %v", err)
	}

	_, otherPub, err := format.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.putSignature(sum, otherPub, sig); !errors.Is(err, format.ErrBadSignature) {
		t.Fatalf("putSignature under the wrong key = %v, want ErrBadSignature", err)
	}
	mut := append([]byte(nil), sig...)
	mut[len(mut)-1] ^= 1
	if err := c.putSignature(sum, pubFile, mut); err == nil {
		t.Fatal("putSignature accepted a corrupted envelope")
	}
}

// bundlePeer is an httptest server speaking the GET /v1/bundle protocol:
// serves data with its content hash as ETag, honors If-None-Match, and
// counts full-body responses.
type bundlePeer struct {
	srv   *httptest.Server
	mu    sync.Mutex
	data  []byte
	sig   []byte
	etag  string
	full  atomic.Int64  // 200 responses served
	total atomic.Int64  // all /v1/bundle requests
	gate  chan struct{} // when non-nil, handler blocks on it before replying
}

func newBundlePeer(t *testing.T, data, sig []byte) *bundlePeer {
	t.Helper()
	p := &bundlePeer{}
	p.set(data, sig)
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/bundle", func(w http.ResponseWriter, r *http.Request) {
		p.total.Add(1)
		p.mu.Lock()
		data, etag, gate := p.data, p.etag, p.gate
		p.mu.Unlock()
		if gate != nil {
			<-gate
		}
		w.Header().Set("ETag", etag)
		if strings.Contains(r.Header.Get("If-None-Match"), etag) {
			w.WriteHeader(http.StatusNotModified)
			return
		}
		p.full.Add(1)
		w.Write(data)
	})
	mux.HandleFunc("/v1/bundle.sig", func(w http.ResponseWriter, r *http.Request) {
		p.mu.Lock()
		sig := p.sig
		p.mu.Unlock()
		if sig == nil {
			http.Error(w, "unsigned", http.StatusNotFound)
			return
		}
		w.Write(sig)
	})
	p.srv = httptest.NewServer(mux)
	t.Cleanup(p.srv.Close)
	return p
}

func (p *bundlePeer) set(data, sig []byte) {
	sum, _ := format.ContentHash(data)
	p.mu.Lock()
	p.data, p.sig = data, sig
	p.etag = `"` + hexSum(sum) + `"`
	p.mu.Unlock()
}

func hexSum(sum [format.HashSize]byte) string {
	const hextable = "0123456789abcdef"
	out := make([]byte, 0, 2*len(sum))
	for _, b := range sum {
		out = append(out, hextable[b>>4], hextable[b&0xf])
	}
	return string(out)
}

func (p *bundlePeer) url() string { return p.srv.URL + "/v1/bundle" }

// TestSourceFetchConditional: a cold Fetch downloads and stores; a warm
// Fetch sends If-None-Match, gets a 304, and serves the cached entry
// without a second body transfer; a changed peer bundle is re-fetched.
func TestSourceFetchConditional(t *testing.T) {
	data := container(t, "v1 of the bundle")
	peer := newBundlePeer(t, data, nil)
	cache, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	src := NewSource(peer.url(), cache, nil)

	path1, err := src.Fetch()
	if err != nil {
		t.Fatalf("cold Fetch: %v", err)
	}
	if got := peer.full.Load(); got != 1 {
		t.Fatalf("cold Fetch made %d full transfers, want 1", got)
	}
	path2, err := src.Fetch()
	if err != nil {
		t.Fatalf("warm Fetch: %v", err)
	}
	if path2 != path1 {
		t.Fatalf("warm Fetch path %q differs from cold %q", path2, path1)
	}
	if got := peer.full.Load(); got != 1 {
		t.Fatalf("warm Fetch re-transferred the body (%d full responses)", got)
	}

	// Peer publishes a new bundle: the next Fetch sees through the ETag.
	peer.set(container(t, "v2 of the bundle"), nil)
	path3, err := src.Fetch()
	if err != nil {
		t.Fatalf("Fetch after publish: %v", err)
	}
	if path3 == path1 {
		t.Fatal("Fetch did not pick up the republished bundle")
	}
	if got := peer.full.Load(); got != 2 {
		t.Fatalf("republished bundle fetched %d times, want exactly once more", got-1)
	}
}

// TestSourceOfflineWarmCache: once the cache is warm, a dead peer is a
// soft failure — Fetch keeps returning the verified cached entry.
// A cold cache with a dead peer is a hard failure.
func TestSourceOfflineWarmCache(t *testing.T) {
	data := container(t, "survives restarts")
	peer := newBundlePeer(t, data, nil)
	dir := t.TempDir()
	cache, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	src := NewSource(peer.url(), cache, nil)
	path, err := src.Fetch()
	if err != nil {
		t.Fatal(err)
	}
	peer.srv.Close()

	got, err := src.Fetch()
	if err != nil || got != path {
		t.Fatalf("offline Fetch = %q, %v; want warm cache %q", got, err, path)
	}

	// A fresh process, same directory: warm boot straight from disk.
	cache2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	src2 := NewSource(peer.url(), cache2, nil)
	if got, err := src2.Fetch(); err != nil || got != path {
		t.Fatalf("warm-boot offline Fetch = %q, %v; want %q", got, err, path)
	}

	// Cold cache, dead peer: nothing to fall back to.
	cold, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSource(peer.url(), cold, nil).Fetch(); err == nil {
		t.Fatal("cold Fetch against a dead peer succeeded")
	}
}

// TestSourceFetchCap: a peer body one byte over the fetch cap is refused
// with the "exceeds" error even with a warm cache to fall back on, and
// nothing of it enters the cache, which keeps serving its warm entry.  A
// body exactly at the cap is fetched.
func TestSourceFetchCap(t *testing.T) {
	peer := newBundlePeer(t, container(t, "warm"), nil)
	dir := t.TempDir()
	cache, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	src := NewSource(peer.url(), cache, nil)
	warm, err := src.Fetch()
	if err != nil {
		t.Fatal(err)
	}
	entries := func() int {
		files, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		return len(files)
	}
	before := entries()

	big := container(t, "a republished bundle, larger than the cap")
	restore := maxFetch
	t.Cleanup(func() { maxFetch = restore })
	maxFetch = int64(len(big)) - 1
	peer.set(big, nil)
	if _, err := src.Fetch(); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("body one byte over the cap: Fetch = %v, want the exceeds error", err)
	}
	if n := entries(); n != before {
		t.Fatalf("the refused body changed the cache: %d files, want %d", n, before)
	}
	if latest, ok := cache.latest(); !ok || cache.entryPath(latest) != warm {
		t.Fatal("the refused body moved the latest entry")
	}

	peer.srv.Close() // offline: Fetch falls back to the warm entry
	if got, err := src.Fetch(); err != nil || got != warm {
		t.Fatalf("warm entry after the refusal: Fetch = %q, %v; want %q", got, err, warm)
	}

	peer = newBundlePeer(t, big, nil)
	maxFetch = int64(len(big))
	if _, err := NewSource(peer.url(), cache, nil).Fetch(); err != nil {
		t.Fatalf("body at the cap: %v", err)
	}
}

// TestSourceVerificationNeverFallsBack: verification failures — tampered
// bytes, a lying ETag, a bad signature, an unsigned peer under a pinned
// key — are hard errors even with a perfectly good warm cache.
func TestSourceVerificationNeverFallsBack(t *testing.T) {
	privFile, pubFile, err := format.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	priv, _ := format.ParsePrivateKey(privFile)
	good := container(t, "the real bundle")
	goodSig, err := format.Sign(priv, good)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("tampered body", func(t *testing.T) {
		mut := append([]byte(nil), good...)
		mut[len(mut)-1] ^= 1
		peer := newBundlePeer(t, good, nil)
		cache, _ := Open(t.TempDir())
		src := NewSource(peer.url(), cache, nil)
		if _, err := src.Fetch(); err != nil {
			t.Fatal(err) // warm the cache with the good bundle first
		}
		peer.mu.Lock()
		peer.data = mut           // body no longer matches its own header hash
		peer.etag = `"republish"` // miss the If-None-Match so the body is sent
		peer.mu.Unlock()
		if _, err := src.Fetch(); !errors.Is(err, format.ErrHashMismatch) {
			t.Fatalf("tampered peer body: Fetch = %v, want ErrHashMismatch (no fallback)", err)
		}
	})

	t.Run("lying etag", func(t *testing.T) {
		peer := newBundlePeer(t, good, nil)
		peer.mu.Lock()
		peer.etag = `"deadbeef"`
		peer.mu.Unlock()
		cache, _ := Open(t.TempDir())
		if _, err := NewSource(peer.url(), cache, nil).Fetch(); err == nil {
			t.Fatal("Fetch accepted a bundle whose ETag does not match its bytes")
		}
	})

	t.Run("bad signature", func(t *testing.T) {
		otherPriv, _, err := format.GenerateKey()
		if err != nil {
			t.Fatal(err)
		}
		op, _ := format.ParsePrivateKey(otherPriv)
		wrongSig, err := format.Sign(op, good)
		if err != nil {
			t.Fatal(err)
		}
		peer := newBundlePeer(t, good, wrongSig)
		cache, _ := Open(t.TempDir())
		// Warm the cache out of band so a fallback, if wrongly taken,
		// would have something to return.
		if _, _, err := cache.put(good); err != nil {
			t.Fatal(err)
		}
		src := NewSource(peer.url(), cache, pubFile)
		// Defeat the conditional path: the peer ignores If-None-Match for
		// a fresh hash, so republish under a different payload.
		fresh := container(t, "freshly published, wrongly signed")
		freshSig, _ := format.Sign(op, fresh)
		peer.set(fresh, freshSig)
		if _, err := src.Fetch(); !errors.Is(err, format.ErrBadSignature) {
			t.Fatalf("wrong-key signature: Fetch = %v, want ErrBadSignature (no fallback)", err)
		}
	})

	t.Run("unsigned peer with pinned key", func(t *testing.T) {
		peer := newBundlePeer(t, good, nil) // no .sig served
		cache, _ := Open(t.TempDir())
		src := NewSource(peer.url(), cache, pubFile)
		if _, err := src.Fetch(); err == nil {
			t.Fatal("Fetch accepted an unsigned bundle under a pinned key")
		}
	})

	t.Run("good signature verifies and lands in cache", func(t *testing.T) {
		peer := newBundlePeer(t, good, goodSig)
		cache, _ := Open(t.TempDir())
		src := NewSource(peer.url(), cache, pubFile)
		path, err := src.Fetch()
		if err != nil {
			t.Fatalf("signed Fetch: %v", err)
		}
		if _, err := os.Stat(path + ".sig"); err != nil {
			t.Fatalf("verified signature not cached alongside the entry: %v", err)
		}
	})
}

// TestSourceSingleflight: concurrent Fetch calls coalesce into one
// network round-trip, and every caller gets the same verified path.
func TestSourceSingleflight(t *testing.T) {
	data := container(t, "herd target")
	peer := newBundlePeer(t, data, nil)
	gate := make(chan struct{})
	peer.mu.Lock()
	peer.gate = gate // hold the first request open while the herd piles up
	peer.mu.Unlock()

	cache, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	src := NewSource(peer.url(), cache, nil)

	const herd = 8
	var wg sync.WaitGroup
	var ready atomic.Int64
	paths := make([]string, herd)
	errs := make([]error, herd)
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ready.Add(1)
			paths[i], errs[i] = src.Fetch()
		}(i)
	}
	// The gate holds the first request open at the peer, so the flight
	// stays in progress while the rest of the herd calls Fetch and joins
	// it.  Wait until that request has arrived and every goroutine is at
	// its Fetch call, give the scheduler a beat, then release.
	for peer.total.Load() == 0 || ready.Load() < herd {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)
	close(gate)
	wg.Wait()

	for i := 0; i < herd; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if paths[i] != paths[0] {
			t.Fatalf("caller %d got path %q, caller 0 got %q", i, paths[i], paths[0])
		}
	}
	if got := peer.total.Load(); got != 1 {
		t.Fatalf("herd of %d made %d requests, want 1", herd, got)
	}
}
