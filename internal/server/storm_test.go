package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/alphabet"
	"repro/internal/docstream"
	"repro/internal/generator"
	"repro/internal/nwa"
	"repro/internal/query"
)

// writeDNWABundle compiles the DNWAs into a bundle file under their names.
func writeDNWABundle(t testing.TB, alpha *alphabet.Alphabet, names []string, queries []*nwa.DNWA) string {
	t.Helper()
	b := query.NewBundle(alpha)
	for i, q := range queries {
		if err := b.Add(names[i], query.Compile(q)); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "storm.nwq")
	if err := os.WriteFile(path, b.Marshal(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// shardGoroutines counts the goroutines running a shard worker.
func shardGoroutines() int {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return bytes.Count(buf[:n], []byte("serve.(*shardSet).worker("))
		}
		buf = make([]byte, 2*len(buf))
	}
}

// shardOf is the shard a server with the given shard count routes a
// document ID to: the FNV-1a sum that serve's TestRouteMatchesFNV pins.
func shardOf(id string, shards int) int {
	h := fnv.New64a()
	io.WriteString(h, id)
	return int(h.Sum64() % uint64(shards))
}

// idsOnShard returns the first n of the IDs prefix0, prefix1, ... that a
// server with the given shard count routes to shard.
func idsOnShard(prefix string, shard, shards, n int) []string {
	var ids []string
	for j := 0; len(ids) < n; j++ {
		if id := fmt.Sprint(prefix, j); shardOf(id, shards) == shard {
			ids = append(ids, id)
		}
	}
	return ids
}

// holdDocument occupies the shard that id routes to with a /v1/documents
// request whose body never finishes arriving until the returned writer is
// closed.  It returns once the body is being read, with the request's
// recorder, readable once done is closed.
func holdDocument(t *testing.T, srv *Server, id string) (*io.PipeWriter, chan struct{}, *httptest.ResponseRecorder) {
	t.Helper()
	pr, pw := io.Pipe()
	body := &firstRead{r: pr, reading: make(chan struct{})}
	req := httptest.NewRequest(http.MethodPost, "/v1/documents?id="+id, body)
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Handler().ServeHTTP(rec, req)
	}()
	<-body.reading
	return pw, done, rec
}

// TestReloadStorm reloads a two-shard server many times under mixed
// /v1/documents and /v1/batch traffic.  Reloads alternate between two
// bundles with different query names over different alphabets, so every
// verdict set shows which generation's table encoded it.  Each round first
// holds both shards, abandons a batch whose lines queue behind them,
// reloads across the abandoned lines and lets the shards go; then clients
// post documents and batches while the server reloads.  Throughout:
//
//   - no more shard goroutines run than the two configured, and none once
//     the server is closed;
//   - every generation's bundle closes exactly once, after its view served
//     its last document;
//   - every verdict set equals a serial pass of the bundle whose names it
//     carries;
//   - a generation's counters start at zero at its swap, queue depth counts
//     the retired generation's waiting lines too, and the served counts of
//     all generations sum to the documents answered plus the abandoned
//     lines, which all count as cancelled.
func TestReloadStorm(t *testing.T) {
	pathA := writeTestBundle(t)
	dcba := alphabet.New("d", "c", "b", "a") // another ID for every label
	pathB := writeDNWABundle(t, dcba, []string{"has d", "//a//d", "//d//b", "well-formed dcba"}, []*nwa.DNWA{
		query.ContainsLabel(dcba, "d"),
		query.PathQuery(dcba, "a", "d"),
		query.PathQuery(dcba, "d", "b"),
		query.WellFormed(dcba),
	})
	rng := rand.New(rand.NewSource(97))
	corpus := make([]string, 40)
	for i := range corpus {
		corpus[i] = docstream.Render(generator.RandomDocument(rng, 20+rng.Intn(100), 8, []string{"a", "b", "c", "d"}))
	}
	wantA, namesA := serialVerdicts(t, pathA, corpus)
	wantB, namesB := serialVerdicts(t, pathB, corpus)
	check := func(where string, i int, verdicts map[string]bool) {
		want, names := wantA, namesA
		if _, ok := verdicts[namesB[0]]; ok {
			want, names = wantB, namesB
		}
		if len(verdicts) != len(names) {
			t.Errorf("%s: verdicts %v name neither bundle's queries", where, verdicts)
			return
		}
		for _, name := range names {
			if v, ok := verdicts[name]; !ok || v != want[i][name] {
				t.Errorf("%s corpus doc %d query %q: %v (present %v), serial %v", where, i, name, v, ok, want[i][name])
			}
		}
	}

	var closesMu sync.Mutex
	closes := map[*poolState]int{}
	servedAtClose := map[*poolState]int64{}
	restore := unmap
	t.Cleanup(func() { unmap = restore })
	unmap = func(st *poolState) {
		closesMu.Lock()
		closes[st]++
		servedAtClose[st] = st.pool.Stats().Served
		closesMu.Unlock()
		restore(st)
	}

	const shards = 2
	base := shardGoroutines()
	var loads atomic.Int64
	srv, ts := testServer(t, Config{
		Source: func() (string, error) {
			if loads.Add(1)%2 == 1 {
				return pathA, nil
			}
			return pathB, nil
		},
		Shards:     shards,
		QueueDepth: 4,
	})
	client := ts.Client()
	current := func() *poolState {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return srv.cur
	}
	gens := []*poolState{current()}
	reload := func() {
		if _, err := srv.Reload(); err != nil {
			t.Fatal(err)
		}
		gens = append(gens, current())
	}

	var maxShards atomic.Int64
	stop, sampled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sampled)
		for {
			if n := int64(shardGoroutines() - base); n > maxShards.Load() {
				maxShards.Store(n)
			}
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
			}
		}
	}()

	var answered atomic.Int64
	abandonedLines := 0
	const rounds = 6
	for round := 0; round < rounds; round++ {
		// Hold both shards on the current generation, each with an ID
		// routed to it.
		var holds [shards]struct {
			pw   *io.PipeWriter
			done chan struct{}
			rec  *httptest.ResponseRecorder
		}
		for i := range holds {
			holds[i].pw, holds[i].done, holds[i].rec = holdDocument(t, srv, idsOnShard("hold-", i, shards, 1)[0])
		}
		queued := func() int {
			st, err := srv.Stats()
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			for _, sh := range st.Shards {
				n += sh.QueueDepth
			}
			return n
		}
		reload()
		if st, err := srv.Stats(); err != nil || st.Served != 0 || st.Failed != 0 || st.Rejected != 0 || st.Latency.Count != 0 {
			t.Fatalf("round %d: generation %d starts at %+v (%v), want zero counters", round, len(gens), st, err)
		}

		// Abandon a batch on the new generation: its lines queue behind the
		// held shards, and the request ends before any is served.
		var abandon strings.Builder
		for i := 0; i < 3; i++ {
			fmt.Fprintf(&abandon, "{\"id\":\"abandoned-%d\",\"doc\":%q}\n", i, corpus[i])
		}
		ctx, cancel := context.WithCancel(context.Background())
		req := httptest.NewRequest(http.MethodPost, "/v1/batch", strings.NewReader(abandon.String())).WithContext(ctx)
		rec := httptest.NewRecorder()
		served := make(chan struct{})
		go func() {
			defer close(served)
			srv.Handler().ServeHTTP(rec, req)
		}()
		for deadline := time.Now().Add(10 * time.Second); queued() != 3; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("the abandoned batch's lines never queued behind the held shards")
			}
		}
		cancel()
		<-served
		if strings.Contains(rec.Body.String(), `"verdicts":{`) {
			t.Fatalf("round %d: the abandoned batch answered a line from a held shard: %s", round, rec.Body)
		}
		abandonedLines += 3

		// Reload across the abandoned lines.  Nothing but its queued lines
		// holds their generation any more, so the reload retires it at
		// once, and its close waits for them off the reload's goroutine.
		abandoned := current()
		reloaded := make(chan error)
		go func() {
			_, err := srv.Reload()
			reloaded <- err
		}()
		for deadline := time.Now().Add(10 * time.Second); current() == abandoned; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("the reload never swapped")
			}
		}
		if n := queued(); n != 3 {
			t.Fatalf("round %d: queue depth %d after the swap, want the retired generation's 3 lines", round, n)
		}
		if n := shardGoroutines() - base; n > shards {
			t.Fatalf("round %d: %d shard goroutines while a retired generation holds queued lines, want %d", round, n, shards)
		}
		for _, h := range holds {
			h.pw.Write([]byte("<a> </a>"))
			h.pw.Close()
			<-h.done
			var res DocumentResult
			if err := json.Unmarshal(h.rec.Body.Bytes(), &res); err != nil || h.rec.Code != http.StatusOK {
				t.Fatalf("round %d: held document answered %d: %s", round, h.rec.Code, h.rec.Body)
			}
			answered.Add(1)
		}
		if err := <-reloaded; err != nil {
			t.Fatal(err)
		}
		gens = append(gens, current())
		// The storm: documents and batches while the server reloads.  The
		// clients report through t.Error, off the test's goroutine.
		post := func(path, body string) (int, []byte, error) {
			resp, err := client.Post(ts.URL+path, "application/octet-stream", strings.NewReader(body))
			if err != nil {
				return 0, nil, err
			}
			defer resp.Body.Close()
			out, err := io.ReadAll(resp.Body)
			return resp.StatusCode, out, err
		}
		var wg sync.WaitGroup
		for c := 0; c < 3; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(1000*round + c)))
				for n := 0; n < 25; n++ {
					i := rng.Intn(len(corpus))
					for {
						code, body, err := post(fmt.Sprintf("/v1/documents?id=r%d-c%d-%d", round, c, n), corpus[i])
						if code == http.StatusTooManyRequests {
							continue
						}
						var res DocumentResult
						if err == nil && code == http.StatusOK {
							err = json.Unmarshal(body, &res)
						}
						if err != nil || code != http.StatusOK {
							t.Errorf("document: status %d, %v, body %s", code, err, body)
							return
						}
						check("document", i, res.Verdicts)
						answered.Add(1)
						break
					}
				}
			}(c)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(round)))
			for b := 0; b < 3; b++ {
				var body strings.Builder
				var idx []int
				for k := 0; k < 10; k++ {
					i := rng.Intn(len(corpus))
					idx = append(idx, i)
					fmt.Fprintf(&body, "{\"id\":\"r%d-b%d-%d\",\"doc\":%q}\n", round, b, k, corpus[i])
				}
				code, out, err := post("/v1/batch", body.String())
				lines := bytes.SplitAfter(out, []byte("\n"))
				if err != nil || code != http.StatusOK || len(lines) != len(idx)+1 {
					t.Errorf("batch: status %d, %v, %d lines answered, want %d", code, err, len(lines)-1, len(idx))
					return
				}
				for k, line := range lines[:len(idx)] {
					var res batchResult
					if err := json.Unmarshal(line, &res); err != nil || res.Error != "" {
						t.Errorf("batch line %d: %s (%v)", k, line, err)
						continue
					}
					check("batch", idx[k], res.Verdicts)
					answered.Add(1)
				}
			}
		}()
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		for swaps, storming := 0, true; storming || swaps < 3; swaps++ {
			reload()
			select {
			case <-done:
				storming = false
			case <-time.After(time.Millisecond):
			}
		}
		if t.Failed() {
			break
		}
	}

	close(stop)
	<-sampled
	srv.Close()
	if n := maxShards.Load(); n > shards {
		t.Errorf("%d shard goroutines ran at once, want at most %d", n, shards)
	}
	for deadline := time.Now().Add(10 * time.Second); shardGoroutines() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d shard goroutines still run after Close", shardGoroutines()-base)
		}
	}
	// A handler drops its reference after its client may have read the
	// response, so the last closes can trail Close by a moment.
	allClosed := func() bool {
		closesMu.Lock()
		defer closesMu.Unlock()
		for _, st := range gens {
			if closes[st] == 0 {
				return false
			}
		}
		return true
	}
	for deadline := time.Now().Add(10 * time.Second); !allClosed(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("a generation's bundle never closed")
		}
	}
	closesMu.Lock()
	defer closesMu.Unlock()

	var servedOK, failed, canceled int64
	for _, st := range gens {
		stats := st.pool.Stats()
		servedOK += stats.Served - stats.Failed
		failed += stats.Failed
		canceled += stats.Canceled
		if n := closes[st]; n != 1 {
			t.Errorf("generation %d's bundle closed %d times, want once", st.info.Generation, n)
		} else if servedAtClose[st] != stats.Served {
			t.Errorf("generation %d served %d documents, %d of them after its bundle closed",
				st.info.Generation, stats.Served, stats.Served-servedAtClose[st])
		}
		if refs := st.refs.Load(); refs != 0 {
			t.Errorf("generation %d holds %d references after Close", st.info.Generation, refs)
		}
	}
	if servedOK != answered.Load() {
		t.Errorf("generations served %d documents without error, clients got %d verdict sets", servedOK, answered.Load())
	}
	if failed != int64(abandonedLines) || canceled != failed {
		t.Errorf("%d failed and %d cancelled documents, want the %d abandoned lines", failed, canceled, abandonedLines)
	}
	t.Logf("%d generations, %d documents answered, %d abandoned lines", len(gens), answered.Load(), abandonedLines)
}
