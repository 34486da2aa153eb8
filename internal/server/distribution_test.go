package server

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"repro/internal/alphabet"
	"repro/internal/bundlecache"
	"repro/internal/query"
	"repro/internal/query/format"
	"repro/internal/serve"
)

// signBundleFile signs the bundle at path with a fresh keypair, writes the
// detached envelope next to it (path.sig, the layout `nwtool sign` emits),
// and returns the keypair files.
func signBundleFile(t testing.TB, path string) (privFile, pubFile []byte) {
	t.Helper()
	privFile, pubFile, err := format.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	priv, err := format.ParsePrivateKey(privFile)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sig, err := format.Sign(priv, data)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path+".sig", sig, 0o644); err != nil {
		t.Fatal(err)
	}
	return privFile, pubFile
}

// provisionedServer boots a host-B style Server that owns no bundle file of
// its own: every load resolves through a bundlecache.Source against peerURL.
func provisionedServer(t testing.TB, peerURL, cacheDir string, pub []byte) (*Server, *httptest.Server, *bundlecache.Cache) {
	t.Helper()
	cache, err := bundlecache.Open(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	src := bundlecache.NewSource(peerURL, cache, pub)
	srv, err := New(Config{Source: src.Fetch, PublicKey: pub, Shards: 2, QueueDepth: 32})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts, cache
}

// TestFleetSelfProvisioning is the distribution acceptance test, two hosts
// end to end: host A compiles and signs a bundle and serves it; host B
// starts with an empty cache and nothing but A's URL and public key,
// self-provisions over GET /v1/bundle, and must then produce verdicts over
// HTTP and by direct pool submission identical to serial evaluation of the
// artifact A published — 1200 documents.  Then A goes away and B restarts
// offline from its warm cache alone.
func TestFleetSelfProvisioning(t *testing.T) {
	// Host A: compile, sign, serve.
	bundle := writeTestBundle(t)
	_, pubFile := signBundleFile(t, bundle)
	_, tsA := testServer(t, Config{BundlePath: bundle, Shards: 2, QueueDepth: 32})

	// Host B: empty cache, A's URL, A's public key. Boot = cold fetch.
	cacheDir := t.TempDir()
	hostB, tsB, _ := provisionedServer(t, tsA.URL+"/v1/bundle", cacheDir, pubFile)

	info, err := hostB.BundleInfo()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(info.Path, cacheDir) {
		t.Fatalf("host B serves from %q, want a cache entry under %q", info.Path, cacheDir)
	}
	raw, err := os.ReadFile(bundle)
	if err != nil {
		t.Fatal(err)
	}
	if sum, err := format.ContentHash(raw); err != nil || info.Bundle.ContentHash != hex.EncodeToString(sum[:]) {
		t.Fatalf("host B serves content hash %q, host A published %x (%v)", info.Bundle.ContentHash, sum, err)
	}

	// Ground truth is serial evaluation of the artifact A published.
	rng := rand.New(rand.NewSource(47))
	const docs = 1200
	corpus := testCorpus(rng, docs)
	want, names := serialVerdicts(t, bundle, corpus)

	// Path 1: HTTP against host B.
	client := tsB.Client()
	for i, doc := range corpus {
		code, res, body := postDocument(t, client, tsB.URL, fmt.Sprintf("doc-%d", i), doc)
		if code != http.StatusOK {
			t.Fatalf("doc %d: status %d, body %s", i, code, body)
		}
		for _, name := range names {
			if res.Verdicts[name] != want[i][name] {
				t.Errorf("doc %d query %q: host B %v, serial %v", i, name, res.Verdicts[name], want[i][name])
			}
		}
	}

	// Path 2: direct pool submission from B's provisioned cache entry.
	b, err := query.OpenBundle(info.Path)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	pool, err := serve.NewPoolFromBundle(b, serve.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	poolNames := b.Names()
	futs := make([]*serve.Future, docs)
	for i, doc := range corpus {
		if futs[i], err = pool.Submit(context.Background(), fmt.Sprintf("doc-%d", i), "", strings.NewReader(doc)); err != nil {
			t.Fatal(err)
		}
	}
	for i, f := range futs {
		res, err := f.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		for q, name := range poolNames {
			if res.Engine.Verdicts[q] != want[i][name] {
				t.Errorf("pool doc %d query %q: pool %v, serial %v", i, name, res.Engine.Verdicts[q], want[i][name])
			}
		}
	}

	// Host A disappears; host B restarts.  The warm cache — entry plus its
	// verified signature sibling — must boot it offline, and the signature
	// check still runs against the pinned key at load.
	tsA.Close()
	hostB2, tsB2, _ := provisionedServer(t, tsA.URL+"/v1/bundle", cacheDir, pubFile)
	info2, err := hostB2.BundleInfo()
	if err != nil {
		t.Fatal(err)
	}
	if info2.Path != info.Path {
		t.Fatalf("warm restart serves %q, want the cached entry %q", info2.Path, info.Path)
	}
	for i, doc := range corpus[:25] {
		code, res, body := postDocument(t, tsB2.Client(), tsB2.URL, fmt.Sprintf("re-%d", i), doc)
		if code != http.StatusOK {
			t.Fatalf("offline doc %d: status %d, body %s", i, code, body)
		}
		for _, name := range names {
			if res.Verdicts[name] != want[i][name] {
				t.Errorf("offline doc %d query %q: got %v, serial %v", i, name, res.Verdicts[name], want[i][name])
			}
		}
	}
}

// TestDistributionRefusesToSwap pins verify-before-swap at fleet scope:
// a tampered cache entry and a badly signed republish must both fail the
// reload with a diagnosable error while the old generation keeps serving.
func TestDistributionRefusesToSwap(t *testing.T) {
	t.Run("tampered cache entry", func(t *testing.T) {
		bundle := writeTestBundle(t)
		_, tsA := testServer(t, Config{BundlePath: bundle, Shards: 2})
		hostB, tsB, cache := provisionedServer(t, tsA.URL+"/v1/bundle", t.TempDir(), nil)
		gen := hostB.generation()

		// Peer gone, and the cached entry rots on disk.
		tsA.Close()
		raw, err := os.ReadFile(bundle)
		if err != nil {
			t.Fatal(err)
		}
		sum, err := format.ContentHash(raw)
		if err != nil {
			t.Fatal(err)
		}
		entry, err := cache.Get(sum)
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(entry)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)-1] ^= 1
		if err := os.WriteFile(entry, data, 0o644); err != nil {
			t.Fatal(err)
		}

		// Reload must fail — a rotten entry is not a warm cache — and the
		// failure must carry the hash mismatch, not a generic fetch error.
		if _, err := hostB.Reload(); !errors.Is(err, format.ErrHashMismatch) {
			t.Fatalf("Reload over a tampered cache entry = %v, want ErrHashMismatch", err)
		}
		if got := hostB.generation(); got != gen {
			t.Fatalf("generation moved %d -> %d on a failed reload", gen, got)
		}
		if code, _, body := postDocument(t, tsB.Client(), tsB.URL, "after", "<a></a>"); code != http.StatusOK {
			t.Fatalf("old generation stopped serving: status %d, body %s", code, body)
		}
	})

	t.Run("bad signature", func(t *testing.T) {
		// Host A publishes signed bundles; host B pins A's key.
		bundle := writeTestBundle(t)
		_, pubFile := signBundleFile(t, bundle)
		srvA, tsA := testServer(t, Config{BundlePath: bundle, Shards: 2})
		hostB, tsB, _ := provisionedServer(t, tsA.URL+"/v1/bundle", t.TempDir(), pubFile)
		gen := hostB.generation()

		// A is compromised: it republishes a different bundle signed by a
		// key that is not the one B pinned.  A itself (no pinned key) loads
		// and serves it happily.
		alpha := alphabet.New("a", "b", "c")
		rogue := query.NewBundle(alpha)
		if err := rogue.Add("wf", query.Compile(query.WellFormed(alpha))); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(bundle, rogue.Marshal(), 0o644); err != nil {
			t.Fatal(err)
		}
		signBundleFile(t, bundle) // fresh keypair: wrong key from B's view
		if _, err := srvA.Reload(); err != nil {
			t.Fatalf("host A reload: %v", err)
		}

		// B's reload fetches the republish, sees a signature by the wrong
		// key, and must refuse before anything reaches its cache or pools.
		if _, err := hostB.Reload(); !errors.Is(err, format.ErrBadSignature) {
			t.Fatalf("Reload of a wrongly signed bundle = %v, want ErrBadSignature", err)
		}
		if got := hostB.generation(); got != gen {
			t.Fatalf("generation moved %d -> %d on a failed reload", gen, got)
		}
		// The old generation still serves — with the old query set.
		code, res, body := postDocument(t, tsB.Client(), tsB.URL, "after", "<a></a>")
		if code != http.StatusOK {
			t.Fatalf("old generation stopped serving: status %d, body %s", code, body)
		}
		if _, ok := res.Verdicts["order(a<b)"]; !ok && len(res.Verdicts) < 2 {
			t.Fatalf("old generation lost its query set: verdicts %v", res.Verdicts)
		}
	})
}

// generation reports the current generation's number.
func (s *Server) generation() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cur.info.Generation
}

// TestBundleIfNoneMatch: GET /v1/bundle evaluates If-None-Match as RFC 9110
// §13.1.2 requires — "*" matches, the comparison is weak, and every field
// line counts — and still sends the bundle for a tag that does not match.
func TestBundleIfNoneMatch(t *testing.T) {
	_, ts := testServer(t, Config{Shards: 1, QueueDepth: 4})
	get := func(fields ...string) (int, string) {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/bundle", nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range fields {
			req.Header.Add("If-None-Match", f)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode, resp.Header.Get("ETag")
	}
	code, etag := get()
	if code != http.StatusOK || etag == "" {
		t.Fatalf("unconditional GET: status %d, ETag %q", code, etag)
	}
	for _, c := range []struct {
		name   string
		fields []string
		want   int
	}{
		{"strong", []string{etag}, http.StatusNotModified},
		{"star", []string{"*"}, http.StatusNotModified},
		{"weak", []string{"W/" + etag}, http.StatusNotModified},
		{"list", []string{`"other", ` + etag}, http.StatusNotModified},
		{"second line", []string{`"other"`, etag}, http.StatusNotModified},
		{"no match", []string{`"other"`}, http.StatusOK},
		{"weak no match", []string{`W/"other"`, `"another"`}, http.StatusOK},
	} {
		if code, _ := get(c.fields...); code != c.want {
			t.Errorf("%s %q: status %d, want %d", c.name, c.fields, code, c.want)
		}
	}
}
