package server

import (
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"repro/internal/serve"
)

// reloadBatch is one document per shard of a two-shard round-robin pool,
// so a batch request checks every shard's session of the new generation.
const reloadBatch = `{"id":"r0","doc":"<a> b <c> a </c> </a>"}` + "\n" +
	`{"id":"r1","doc":"<b> c zz </b>"}` + "\n"

// reloadServer boots a two-shard server over the test bundle with
// round-robin routing and serves reloadBatch once, so every shard and the
// request path are warm.
func reloadServer(tb testing.TB) (*Server, http.Handler) {
	tb.Helper()
	srv, err := New(Config{BundlePath: writeTestBundle(tb), Shards: 2, Affinity: serve.AffinityNone})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { srv.Close() })
	h := srv.Handler()
	serveReloadBatch(tb, h)
	return srv, h
}

// serveReloadBatch serves reloadBatch through h and checks both verdict lines.
func serveReloadBatch(tb testing.TB, h http.Handler) {
	tb.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/batch", strings.NewReader(reloadBatch))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if body := rec.Body.String(); rec.Code != http.StatusOK || strings.Count(body, "\n") != 2 || strings.Contains(body, `"error"`) {
		tb.Fatalf("batch answered %d: %s", rec.Code, body)
	}
}

// reloadCycle swaps in a new generation and serves one batch on it.
func reloadCycle(tb testing.TB, srv *Server, h http.Handler) {
	tb.Helper()
	if _, err := srv.Reload(); err != nil {
		tb.Fatal(err)
	}
	serveReloadBatch(tb, h)
}

// maxReloadBytes bounds the heap bytes one reloadCycle allocates: opening
// the bundle, building its engine and swapping it onto the server's two
// shards, and one batch request.  The shards keep their goroutines,
// queues, futures, decoders and session buffers across the swap, so a
// cycle measures about 13 KB; booting a fresh pool per reload, as the
// server once did, measured about 50 KB, and a fresh 16 KiB body reader
// per request would add about 16 KB.
const maxReloadBytes = 24 << 10

// TestReloadAllocBytes pins the bytes a reload plus one batch request
// allocate, averaged over repeated cycles.
func TestReloadAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops Puts at random")
	}
	srv, h := reloadServer(t)
	for i := 0; i < 5; i++ {
		reloadCycle(t, srv, h)
	}
	const cycles = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < cycles; i++ {
		reloadCycle(t, srv, h)
	}
	runtime.ReadMemStats(&after)
	if perCycle := (after.TotalAlloc - before.TotalAlloc) / cycles; perCycle > maxReloadBytes {
		t.Errorf("reload plus one batch allocated %d B per cycle, want at most %d", perCycle, maxReloadBytes)
	} else {
		t.Logf("reload plus one batch: %d B per cycle", perCycle)
	}
}

// BenchmarkReload times one reload plus one document per shard.
func BenchmarkReload(b *testing.B) {
	srv, h := reloadServer(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reloadCycle(b, srv, h)
	}
}
