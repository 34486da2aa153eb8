package server

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// reloadBatch is one document per shard of a two-shard server — "r0" and
// "r1" route to different shards, which reloadServer checks — so a batch
// request checks every shard's session of the new generation.
const reloadBatch = `{"id":"r0","doc":"<a> b <c> a </c> </a>"}` + "\n" +
	`{"id":"r1","doc":"<b> c zz </b>"}` + "\n"

// reloadServer boots a two-shard server over the test bundle and serves
// reloadBatch once, so every shard and the request path are warm.
func reloadServer(tb testing.TB) (*Server, http.Handler) {
	tb.Helper()
	if shardOf("r0", 2) == shardOf("r1", 2) {
		tb.Fatal("reloadBatch's two documents route to one shard")
	}
	srv, err := New(Config{BundlePath: writeTestBundle(tb), Shards: 2})
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

// TestReloadAcrossQueuedWork reloads while lines of an abandoned batch wait
// behind a held shard.  The batch ran on generation 2, and once it ends
// only its queued lines hold that generation, so the reload to generation
// 3 drops its last reference.  That reload must return, and the next one
// start and return, while the shard is still held; the retired
// generation's bundle stays mapped until the shard is let go and its lines
// are served, and then every retired generation's bundle closes exactly
// once.
func TestReloadAcrossQueuedWork(t *testing.T) {
	var mu sync.Mutex
	closes := map[int64]int{}
	servedAtClose := map[int64]int64{}
	restore := unmap
	t.Cleanup(func() { unmap = restore })
	unmap = func(st *poolState) {
		mu.Lock()
		closes[st.info.Generation]++
		servedAtClose[st.info.Generation] = st.pool.Stats().Served
		mu.Unlock()
		restore(st)
	}
	closed := func(gen int64) int {
		mu.Lock()
		defer mu.Unlock()
		return closes[gen]
	}

	const shards = 2
	srv, _ := testServer(t, Config{Shards: shards, QueueDepth: 4})
	stall, stallDone := holdShard(t, srv) // on generation 1
	defer stall.Close()                   // lets a failed run unwind
	held := shardOf("hold", shards)
	reload := func() {
		t.Helper()
		done := make(chan error, 1)
		go func() {
			_, err := srv.Reload()
			done <- err
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a reload did not return while a shard was held")
		}
	}
	reload()

	var batch strings.Builder
	for _, id := range idsOnShard("abandoned-", held, shards, 3) {
		fmt.Fprintf(&batch, "{\"id\":%q,\"doc\":\"<a> b </a>\"}\n", id)
	}
	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodPost, "/v1/batch", strings.NewReader(batch.String())).WithContext(ctx)
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.Handler().ServeHTTP(httptest.NewRecorder(), req)
	}()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		st, err := srv.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if st.Shards[held].QueueDepth == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the batch's lines never queued behind the held shard")
		}
	}
	cancel()
	<-served

	reload() // retires generation 2 with its three lines queued
	reload()
	if n := closed(2); n != 0 {
		t.Fatalf("generation 2's bundle closed %d times while its lines were queued", n)
	}

	stall.Write([]byte("<a> </a>"))
	stall.Close()
	<-stallDone
	for deadline := time.Now().Add(10 * time.Second); closed(1) == 0 || closed(2) == 0 || closed(3) == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("a retired generation's bundle never closed")
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for gen, want := range map[int64]int64{1: 1, 2: 3, 3: 0} {
		if closes[gen] != 1 || servedAtClose[gen] != want {
			t.Errorf("generation %d's bundle closed %d times, after %d documents; want once, after %d",
				gen, closes[gen], servedAtClose[gen], want)
		}
	}
	if closes[4] != 0 {
		t.Errorf("the serving generation's bundle closed %d times", closes[4])
	}
}
