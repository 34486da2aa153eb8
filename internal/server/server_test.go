package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/alphabet"
	"repro/internal/docstream"
	"repro/internal/engine"
	"repro/internal/generator"
	"repro/internal/query"
	"repro/internal/query/format"
	"repro/internal/serve"
)

// writeTestBundle compiles the standard {a,b,c} query set (well-formedness,
// one order query, one path query) and writes it as a bundle file, the way
// `nwtool compile` would.
func writeTestBundle(t testing.TB) string {
	t.Helper()
	alpha := alphabet.New("a", "b", "c")
	names, queries := query.StandardSet(alpha, []string{"a", "b"}, []string{"a", "c"})
	b := query.NewBundle(alpha)
	for i, q := range queries {
		if err := b.Add(names[i], q); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "queries.nwq")
	if err := os.WriteFile(path, b.Marshal(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// testServer boots a Server over a fresh test bundle plus an httptest
// front; both are torn down with the test.
func testServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.BundlePath == "" {
		cfg.BundlePath = writeTestBundle(t)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

// testCorpus renders well-matched random documents as text, so the same
// bytes can travel over HTTP, into a pool reader, and through the serial
// engine.
func testCorpus(rng *rand.Rand, docs int) []string {
	corpus := make([]string, docs)
	for i := range corpus {
		n := generator.RandomDocument(rng, 20+rng.Intn(120), 8, []string{"a", "b", "c"})
		corpus[i] = docstream.Render(n)
	}
	return corpus
}

// serialVerdicts evaluates the corpus on a serial engine booted from the
// same bundle file — the ground truth all serving paths must match.
func serialVerdicts(t testing.TB, bundlePath string, corpus []string) ([]map[string]bool, []string) {
	t.Helper()
	b, err := query.OpenBundle(bundlePath)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	eng := engine.New()
	if _, err := eng.RegisterBundle(b); err != nil {
		t.Fatal(err)
	}
	names := eng.Names()
	out := make([]map[string]bool, len(corpus))
	for i, doc := range corpus {
		r, err := eng.RunReader(strings.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		out[i] = make(map[string]bool, len(names))
		for q, name := range names {
			out[i][name] = r.Verdicts[q]
		}
	}
	return out, names
}

func postDocument(t testing.TB, client *http.Client, base, id, doc string) (int, DocumentResult, string) {
	t.Helper()
	resp, err := client.Post(base+"/v1/documents?id="+id, "text/plain", strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var res DocumentResult
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, &res); err != nil {
			t.Fatalf("status %d, unparseable body %q: %v", resp.StatusCode, body, err)
		}
	}
	return resp.StatusCode, res, string(body)
}

// postFormat posts one document with ?format= and returns the status code
// and response body.
func postFormat(t testing.TB, client *http.Client, base, format, doc string) (int, string) {
	t.Helper()
	resp, err := client.Post(base+"/v1/documents?format="+format, "application/octet-stream", strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestHTTPDifferential is the serving acceptance test: on a 1200-document
// corpus, verdicts served over HTTP (both the single-document and the
// NDJSON batch endpoint, and single documents submitted all at once to a 1-
// and an 8-shard server) and verdicts from direct pool submission must be
// identical to serial engine evaluation of the same bytes.
func TestHTTPDifferential(t *testing.T) {
	bundle := writeTestBundle(t)
	rng := rand.New(rand.NewSource(41))
	const docs = 1200
	corpus := testCorpus(rng, docs)
	want, names := serialVerdicts(t, bundle, corpus)

	srv, ts := testServer(t, Config{BundlePath: bundle, Shards: 4, QueueDepth: 32})
	_ = srv

	// Path 1: HTTP single-document endpoint.
	client := ts.Client()
	for i, doc := range corpus {
		code, res, body := postDocument(t, client, ts.URL, fmt.Sprintf("doc-%d", i), doc)
		if code != http.StatusOK {
			t.Fatalf("doc %d: status %d, body %s", i, code, body)
		}
		for _, name := range names {
			if res.Verdicts[name] != want[i][name] {
				t.Errorf("doc %d query %q: HTTP %v, serial %v", i, name, res.Verdicts[name], want[i][name])
			}
		}
	}

	// Path 2: HTTP batch endpoint, all documents in one NDJSON stream.
	var req bytes.Buffer
	enc := json.NewEncoder(&req)
	for i, doc := range corpus {
		enc.Encode(map[string]string{"id": fmt.Sprintf("doc-%d", i), "doc": doc})
	}
	resp, err := client.Post(ts.URL+"/v1/batch", "application/x-ndjson", &req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	lines := 0
	for sc.Scan() {
		var res struct {
			DocumentResult
			Error string `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
			t.Fatalf("batch line %d: %v", lines, err)
		}
		if res.Error != "" {
			t.Fatalf("batch line %d (%s): %s", lines, res.ID, res.Error)
		}
		if res.ID != fmt.Sprintf("doc-%d", lines) {
			t.Fatalf("batch line %d out of order: id %q", lines, res.ID)
		}
		for _, name := range names {
			if res.Verdicts[name] != want[lines][name] {
				t.Errorf("batch doc %d query %q: HTTP %v, serial %v", lines, name, res.Verdicts[name], want[lines][name])
			}
		}
		lines++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines != docs {
		t.Fatalf("batch returned %d lines, want %d", lines, docs)
	}

	// Path 3: direct pool submission from the same bundle file.
	b, err := query.OpenBundle(bundle)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	pool, err := serve.NewPoolFromBundle(b, serve.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	poolNames := b.Names()
	futs := make([]*serve.Future, docs)
	for i, doc := range corpus {
		futs[i], err = pool.Submit(context.Background(), fmt.Sprintf("doc-%d", i), "", strings.NewReader(doc))
		if err != nil {
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

	// Path 4: every document of a prefix in flight at once over HTTP, on a
	// single-shard server (the whole prefix queues behind one worker) and
	// an 8-shard one.  Queues hold the prefix, so saturation shows up as
	// waiting, never as a 429.
	const inFlight = 150
	for _, shards := range []int{1, 8} {
		_, ts := testServer(t, Config{BundlePath: bundle, Shards: shards, QueueDepth: inFlight})
		client := ts.Client()
		var wg sync.WaitGroup
		for i, doc := range corpus[:inFlight] {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, err := client.Post(fmt.Sprintf("%s/v1/documents?id=doc-%d", ts.URL, i), "text/plain", strings.NewReader(doc))
				if err != nil {
					t.Errorf("%d shards, doc %d: %v", shards, i, err)
					return
				}
				defer resp.Body.Close()
				var res DocumentResult
				if err := json.NewDecoder(resp.Body).Decode(&res); err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("%d shards, doc %d: status %d, decode %v", shards, i, resp.StatusCode, err)
					return
				}
				for _, name := range names {
					if res.Verdicts[name] != want[i][name] {
						t.Errorf("%d shards, concurrent doc %d query %q: HTTP %v, serial %v",
							shards, i, name, res.Verdicts[name], want[i][name])
					}
				}
			}()
		}
		wg.Wait()
	}
}

// TestReloadUnderLoad races document submissions against bundle reloads:
// client goroutines hammer /v1/documents while the main goroutine swaps
// generations via /v1/reload, and every single response must be a correct
// verdict set — nothing dropped, nothing torn, in-flight documents
// finishing on whichever generation accepted them.  Run under -race this
// also checks the swap publishes safely.
func TestReloadUnderLoad(t *testing.T) {
	bundle := writeTestBundle(t)
	rng := rand.New(rand.NewSource(43))
	corpus := testCorpus(rng, 60)
	want, names := serialVerdicts(t, bundle, corpus)

	srv, ts := testServer(t, Config{BundlePath: bundle, Shards: 3, QueueDepth: 16})
	client := ts.Client()

	const workers = 6
	const perWorker = 50
	var served, retried atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for n := 0; n < perWorker; n++ {
				i := rng.Intn(len(corpus))
				for {
					code, res, body := postDocument(t, client, ts.URL, fmt.Sprintf("w%d-n%d", w, n), corpus[i])
					if code == http.StatusTooManyRequests {
						retried.Add(1)
						continue // transient overload: retry until accepted
					}
					if code != http.StatusOK {
						t.Errorf("worker %d doc %d: status %d, body %s", w, n, code, body)
						return
					}
					for _, name := range names {
						if res.Verdicts[name] != want[i][name] {
							t.Errorf("worker %d corpus doc %d query %q: got %v, want %v",
								w, i, name, res.Verdicts[name], want[i][name])
						}
					}
					served.Add(1)
					break
				}
			}
		}(w)
	}

	// Swap generations while the workers hammer the old ones.
	reloads := 0
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		select {
		case <-done:
			if served.Load() != workers*perWorker {
				t.Fatalf("served %d documents, want %d", served.Load(), workers*perWorker)
			}
			if reloads == 0 {
				t.Fatal("no reload ever ran during the load")
			}
			info, err := srv.BundleInfo()
			if err != nil {
				t.Fatal(err)
			}
			if info.Generation != int64(reloads)+1 {
				t.Fatalf("generation %d after %d reloads", info.Generation, reloads)
			}
			t.Logf("served %d documents across %d reloads (%d retries after 429)",
				served.Load(), reloads, retried.Load())
			return
		default:
			resp, err := client.Post(ts.URL+"/v1/reload", "", nil)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("reload status %d", resp.StatusCode)
			}
			reloads++
		}
	}
}

// TestHTTPErrorMapping pins the serve-sentinel-to-status-code contract:
// a full shard queue answers 429 with Retry-After, a closed server 503
// with Retry-After, an oversized body 413 (native, XML and JSON alike), and
// a malformed document 400 — each with a JSON error envelope — while an
// unknown format on a batch line fails only that line.
func TestHTTPErrorMapping(t *testing.T) {
	srv, ts := testServer(t, Config{Shards: 1, QueueDepth: 1, MaxBodyBytes: 1 << 20})
	client := ts.Client()

	// Occupy the single worker and the depth-1 queue with two requests
	// whose bodies never finish arriving: the tokenizer blocks reading
	// them, so the next submission finds the queue full.
	type held struct {
		w    *io.PipeWriter
		done chan struct{}
	}
	var holds []held
	for i := 0; i < 2; i++ {
		pr, pw := io.Pipe()
		done := make(chan struct{})
		req, err := http.NewRequest("POST", ts.URL+fmt.Sprintf("/v1/documents?id=hold-%d", i), pr)
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			defer close(done)
			resp, err := client.Do(req)
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
		pw.Write([]byte("<a>"))
		holds = append(holds, held{w: pw, done: done})
	}

	// Wait until both held documents are actually inside the pool (one
	// being served, one queued) before expecting 429.  Only the counters
	// are polled: a probe document could take the queue slot ahead of the
	// second held request and then wait forever behind the first.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		st, err := srv.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if st.Shards[0].QueueDepth >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("never saturated the depth-1 queue")
		}
	}

	resp, err := client.Post(ts.URL+"/v1/documents?id=overflow", "text/plain", strings.NewReader("<a></a>"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full queue: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}

	// Release the held documents and let them finish.  Either may be the
	// one on the shard, so both bodies end before waiting for either.
	for _, h := range holds {
		h.w.Write([]byte("</a>"))
		h.w.Close()
	}
	for _, h := range holds {
		<-h.done
	}

	// Malformed document: 400 with a JSON error envelope.
	code, _, body := postDocument(t, client, ts.URL, "bad", "<a unterminated")
	if code != http.StatusBadRequest {
		t.Fatalf("malformed document: status %d, body %s", code, body)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal([]byte(body), &e); err != nil || e.Error == "" {
		t.Fatalf("malformed document: body %q is not an error envelope", body)
	}

	// A malformed ?format=json body is a client error too.
	if code, body := postFormat(t, client, ts.URL, "json", `{"a": [1, }`); code != http.StatusBadRequest {
		t.Fatalf("malformed JSON document: status %d, body %s", code, body)
	}

	// An unknown format on one NDJSON batch line fails that line only: the
	// lines around it are served and the stream runs to its end.
	batch := `{"id":"ok-1","doc":"<a> c </a>"}` + "\n" +
		`{"id":"yaml","doc":"a: b","format":"yaml"}` + "\n" +
		`{"id":"ok-2","doc":"[1]","format":"json"}` + "\n"
	resp, err = client.Post(ts.URL+"/v1/batch", "application/x-ndjson", strings.NewReader(batch))
	if err != nil {
		t.Fatal(err)
	}
	lines, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("batch with an unknown format: status %d, read %v", resp.StatusCode, err)
	}
	var got []batchResult
	for _, line := range strings.Split(strings.TrimSpace(string(lines)), "\n") {
		var res batchResult
		if err := json.Unmarshal([]byte(line), &res); err != nil {
			t.Fatalf("batch line %q: %v", line, err)
		}
		got = append(got, res)
	}
	if len(got) != 3 || got[0].Error != "" || got[2].Error != "" || got[0].Events != 3 || got[2].Events != 3 {
		t.Fatalf("batch around an unknown format: %+v", got)
	}
	if got[1].ID != "yaml" || !strings.Contains(got[1].Error, "unknown format") {
		t.Fatalf("unknown-format batch line: %+v, want a per-line error", got[1])
	}

	// Oversized body: 413 on every decode path.  The adapters must hand
	// back the body reader's *http.MaxBytesError rather than fold it into a
	// syntax error.
	srv2, ts2 := testServer(t, Config{Shards: 1, MaxBodyBytes: 64})
	_ = srv2
	big := "<a>" + strings.Repeat("x ", 200) + "</a>"
	code, _, body = postDocument(t, ts2.Client(), ts2.URL, "big", big)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, body %s", code, body)
	}
	if code, body := postFormat(t, ts2.Client(), ts2.URL, "xml", big); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized XML body: status %d, body %s", code, body)
	}
	bigJSON := "[" + strings.Repeat(`"x", `, 100) + `"x"]`
	if code, body := postFormat(t, ts2.Client(), ts2.URL, "json", bigJSON); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized JSON body: status %d, body %s", code, body)
	}

	// Closed server: every endpoint answers 503 with Retry-After.
	srv.Close()
	resp, err = client.Post(ts.URL+"/v1/documents?id=late", "text/plain", strings.NewReader("<a></a>"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("closed server: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
}

// TestStatusAndMetrics checks the observability surfaces: /v1/status
// carries the bundle identity in the same schema `nwtool bundle -json`
// prints plus coherent counters, and /metrics speaks enough Prometheus
// text exposition for a scraper (counter lines, per-shard labels, a
// cumulative latency histogram ending in +Inf).
func TestStatusAndMetrics(t *testing.T) {
	bundle := writeTestBundle(t)
	srv, ts := testServer(t, Config{BundlePath: bundle, Shards: 2, QueueDepth: 8})
	client := ts.Client()

	rng := rand.New(rand.NewSource(47))
	corpus := testCorpus(rng, 40)
	for i, doc := range corpus {
		if code, _, body := postDocument(t, client, ts.URL, fmt.Sprintf("doc-%d", i), doc); code != http.StatusOK {
			t.Fatalf("doc %d: status %d, body %s", i, code, body)
		}
	}

	resp, err := client.Get(ts.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	var st statusDoc
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Served != int64(len(corpus)) {
		t.Errorf("status served %d, want %d", st.Served, len(corpus))
	}
	if st.BundleInfo.Generation != 1 || st.BundleInfo.Path != bundle {
		t.Errorf("bundle identity %+v", st.BundleInfo)
	}
	if got := len(st.BundleInfo.Bundle.Queries); got != 3 {
		t.Errorf("bundle description has %d queries, want 3", got)
	}
	if len(st.ShardStats) != 2 || st.Shards != 2 || st.QueueCap != 8 {
		t.Errorf("pool shape: %+v", st)
	}
	var shardSum int64
	for _, sh := range st.ShardStats {
		shardSum += sh.Served
	}
	if shardSum != st.Served {
		t.Errorf("per-shard served sums to %d, aggregate %d", shardSum, st.Served)
	}
	if st.LatencyP50Sec <= 0 || st.LatencyP99Sec < st.LatencyP50Sec {
		t.Errorf("latency quantiles: %+v", st)
	}

	// The status bundle description must equal Describe of the file on
	// disk — the one-schema satellite.
	b, err := query.OpenBundle(bundle)
	if err != nil {
		t.Fatal(err)
	}
	onDisk := query.Describe(b)
	b.Close()
	if fmt.Sprint(st.BundleInfo.Bundle) != fmt.Sprint(onDisk) {
		t.Errorf("status bundle desc %+v != on-disk desc %+v", st.BundleInfo.Bundle, onDisk)
	}

	resp, err = client.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(metrics)
	for _, want := range []string{
		fmt.Sprintf("nwserved_documents_served_total %d", len(corpus)),
		`nwserved_shard_queue_depth{shard="0"}`,
		`nwserved_shard_queue_depth{shard="1"}`,
		"nwserved_bundle_generation 1",
		`nwserved_document_latency_seconds_bucket{le="+Inf"} 40`,
		"nwserved_document_latency_seconds_count 40",
		"# TYPE nwserved_document_latency_seconds histogram",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// A reload resets per-generation counters and bumps the generation.
	if _, err := srv.Reload(); err != nil {
		t.Fatal(err)
	}
	resp, err = client.Get(ts.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.BundleInfo.Generation != 2 || st.Served != 0 || st.Reloads != 1 {
		t.Errorf("after reload: generation %d served %d reloads %d", st.BundleInfo.Generation, st.Served, st.Reloads)
	}
}

// unhashedCopy rewrites a hashed container under a version-1 header: the
// same directory and sections without the 32-byte content hash, so every
// section offset moves 32 bytes down, as an unhashed writer lays them out.
func unhashedCopy(data []byte) []byte {
	const header, entry = 24, 24
	out := append(bytes.Clone(data[:header]), data[header+format.HashSize:]...)
	binary.LittleEndian.PutUint32(out[4:], format.Version1)
	for i := range int(binary.LittleEndian.Uint32(out[16:])) {
		off := out[header+entry*i+8:]
		binary.LittleEndian.PutUint64(off, binary.LittleEndian.Uint64(off)-format.HashSize)
	}
	return out
}

// TestReloadBadBundleKeepsServing checks the failure half of the reload
// contract: when a bad file is renamed over the bundle path — garbage, or
// the served bundle's own sections under an unhashed version-1 header —
// Reload fails and the old generation keeps serving untouched, its bytes
// under its old ETag.  A server booted from the unhashed file refuses it
// with format.ErrUnhashed.
func TestReloadBadBundleKeepsServing(t *testing.T) {
	bundle := writeTestBundle(t)
	srv, ts := testServer(t, Config{BundlePath: bundle, Shards: 2})
	client := ts.Client()
	get := func() (etag string, body []byte) {
		t.Helper()
		resp, err := client.Get(ts.URL + "/v1/bundle")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if body, err = io.ReadAll(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp.Header.Get("ETag"), body
	}
	served, good := get()
	for _, bad := range []struct {
		name string
		data []byte
	}{
		{"corrupt", []byte("not a bundle")},
		{"unhashed", unhashedCopy(good)},
	} {
		// A deploy renames the new file into place; writing over the
		// mapped file itself would change the live generation's tables.
		tmp := bundle + ".tmp"
		if err := os.WriteFile(tmp, bad.data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Rename(tmp, bundle); err != nil {
			t.Fatal(err)
		}
		resp, err := client.Post(ts.URL+"/v1/reload", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("reload of the %s bundle: status %d, want 500", bad.name, resp.StatusCode)
		}
		info, err := srv.BundleInfo()
		if err != nil {
			t.Fatal(err)
		}
		if info.Generation != 1 {
			t.Fatalf("generation moved to %d after a failed reload of the %s bundle", info.Generation, bad.name)
		}
		if code, res, body := postDocument(t, client, ts.URL, "still-up", "<a><c>x</c></a>"); code != http.StatusOK || len(res.Verdicts) != 3 {
			t.Fatalf("old generation stopped serving after the %s bundle: status %d, body %s", bad.name, code, body)
		}
		if etag, body := get(); etag != served || !bytes.Equal(body, good) {
			t.Fatalf("after the %s bundle GET /v1/bundle has ETag %q, want the old %q and bytes", bad.name, etag, served)
		}
	}
	if _, err := New(Config{BundlePath: bundle, Shards: 1}); !errors.Is(err, format.ErrUnhashed) {
		t.Fatalf("booting from the unhashed bundle: got %v, want format.ErrUnhashed", err)
	}
}

// postBatch posts an NDJSON batch and returns its response lines, raw and
// decoded.
func postBatch(t testing.TB, client *http.Client, base, body string) ([]string, []batchResult) {
	t.Helper()
	resp, err := client.Post(base+"/v1/batch", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d, read %v", resp.StatusCode, err)
	}
	var raw []string
	var res []batchResult
	for _, line := range strings.SplitAfter(string(out), "\n") {
		if line == "" {
			continue
		}
		var r batchResult
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("batch response line %q: %v", line, err)
		}
		raw = append(raw, line)
		res = append(res, r)
	}
	return raw, res
}

// TestBatchEdgeCases pins the batch reader's line handling: malformed
// lines fail alone, an over-long line ends the stream, blank lines are
// skipped, a missing ID is filled in, and an escaped document is served
// exactly like its unescaped form.
func TestBatchEdgeCases(t *testing.T) {
	_, ts := testServer(t, Config{Shards: 2, MaxBodyBytes: 1 << 10})
	client := ts.Client()

	t.Run("malformed line mid-stream", func(t *testing.T) {
		_, got := postBatch(t, client, ts.URL,
			`{"id":"ok-1","doc":"<a> c </a>"}`+"\n"+
				`{"id":"broken","doc":`+"\n"+
				`{"id":7,"doc":"<a></a>"}`+"\n"+
				`{"id":"ok-2","doc":"<b></b>"}`+"\n")
		if len(got) != 4 {
			t.Fatalf("%d response lines, want 4: %+v", len(got), got)
		}
		for i, id := range []string{"line-2", "line-3"} {
			if r := got[i+1]; r.ID != id || !strings.HasPrefix(r.Error, "malformed batch line: ") || r.Verdicts != nil {
				t.Errorf("malformed line %d: %+v", i+2, r)
			}
		}
		if got[0].ID != "ok-1" || got[0].Error != "" || got[0].Events != 3 ||
			got[3].ID != "ok-2" || got[3].Error != "" || got[3].Events != 2 {
			t.Errorf("lines around the malformed ones: %+v", got)
		}
	})

	t.Run("line over MaxBodyBytes", func(t *testing.T) {
		long := `{"id":"long","doc":"<a>` + strings.Repeat(" x", 600) + ` </a>"}`
		raw, got := postBatch(t, client, ts.URL,
			`{"id":"ok-1","doc":"<a></a>"}`+"\n"+
				`{"id":"ok-2","doc":"<a></a>"}`+"\n"+
				long+"\n"+
				`{"id":"never","doc":"<a></a>"}`+"\n")
		if len(got) != 3 || got[0].ID != "ok-1" || got[1].ID != "ok-2" || got[0].Error != "" || got[1].Error != "" {
			t.Fatalf("want two verdict lines and the body error: %q", raw)
		}
		if got[2].ID != "body" || got[2].Error == "" || got[2].Verdicts != nil {
			t.Fatalf("over-long line: %q, want an \"id\":\"body\" error line", raw[2])
		}
	})

	t.Run("blank lines and missing IDs", func(t *testing.T) {
		_, got := postBatch(t, client, ts.URL,
			"\n   \t\r\n"+
				`{"doc":"<a></a>"}`+"\r\n"+
				"\r\n\n"+
				` {"id":"named","doc":"<a> c </a>"} `+"\n"+
				" \xc2\xa0\n"+
				"not json\n"+
				`{"doc":"<c></c>","id":""}`) // no final newline
		if len(got) != 4 {
			t.Fatalf("%d response lines, want 4: %+v", len(got), got)
		}
		for _, i := range []int{0, 3} {
			if !strings.HasPrefix(got[i].ID, "doc-") || got[i].Error != "" {
				t.Errorf("line without an ID: %+v, want a doc-N verdict", got[i])
			}
		}
		if got[0].ID == got[3].ID {
			t.Errorf("two documents share the fallback ID %q", got[0].ID)
		}
		if got[1].ID != "named" || got[1].Events != 3 {
			t.Errorf("named line: %+v", got[1])
		}
		if got[2].ID != "line-3" || got[2].Error == "" {
			t.Errorf("blank lines are not counted: %+v, want line-3", got[2])
		}
	})

	t.Run("escaped document", func(t *testing.T) {
		plain := "<a> <b> \U0001f600 caf\u00e9 </b> <c> </c> </a>"
		escaped := `\u003ca> \u003Cb\u003e \ud83d\ude00 caf\u00e9 </b>\t<c>\n</c> <\/a>`
		_, got := postBatch(t, client, ts.URL,
			`{"id":"plain","doc":"`+plain+`"}`+"\n"+`{"id":"escaped","doc":"`+escaped+`"}`+"\n")
		if len(got) != 2 || got[0].Error != "" || got[1].Error != "" {
			t.Fatalf("escaped batch: %+v", got)
		}
		if got[0].Events != got[1].Events || got[0].MaxDepth != got[1].MaxDepth || fmt.Sprint(got[0].Verdicts) != fmt.Sprint(got[1].Verdicts) {
			t.Errorf("escaped document %+v, unescaped %+v", got[1], got[0])
		}
	})
}

// TestBatchDisconnect abandons batches while shards still hold their line
// buffers, next to batches that run to completion, whose verdicts must
// equal serial evaluation.  First deterministically: the only shard is
// stalled on a document whose body never finishes, a batch's lines queue
// behind it, and the batch's context ends — the handler must return
// without waiting for the shard, leaving the queued buffers alone.  Then
// over the network: clients drop batches of large documents mid-stream
// while a second client's batch runs.  Under -race this checks that no
// buffer is recycled while a shard may still read it.
func TestBatchDisconnect(t *testing.T) {
	bundle := writeTestBundle(t)
	rng := rand.New(rand.NewSource(53))
	corpus := testCorpus(rng, 150)
	want, names := serialVerdicts(t, bundle, corpus)

	var good strings.Builder
	enc := json.NewEncoder(&good)
	for i, doc := range corpus {
		enc.Encode(batchLine{ID: fmt.Sprintf("doc-%d", i), Doc: doc})
	}
	checkGood := func(t *testing.T, got []batchResult) {
		t.Helper()
		if len(got) != len(corpus) {
			t.Fatalf("%d response lines, want %d", len(got), len(corpus))
		}
		for i, res := range got {
			if res.Error != "" || res.ID != fmt.Sprintf("doc-%d", i) {
				t.Fatalf("line %d: %+v", i, res)
			}
			for _, name := range names {
				if res.Verdicts[name] != want[i][name] {
					t.Errorf("doc %d query %q: batch %v, serial %v", i, name, res.Verdicts[name], want[i][name])
				}
			}
		}
	}
	bigLine, err := json.Marshal(batchLine{Doc: "<a>" + strings.Repeat(" <b> x </b> <c> </c>", 5000) + " </a>"})
	if err != nil {
		t.Fatal(err)
	}
	bigLine = append(bigLine, '\n')

	t.Run("stalled shard", func(t *testing.T) {
		srv, ts := testServer(t, Config{BundlePath: bundle, Shards: 1, QueueDepth: 4})
		stall, stallDone := holdShard(t, srv)
		ctx, cancel := context.WithCancel(context.Background())
		req := httptest.NewRequest("POST", "/v1/batch", strings.NewReader(strings.Repeat(string(bigLine), 3))).WithContext(ctx)
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
			if st.Shards[0].QueueDepth == 3 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("the batch's lines never queued behind the stalled document")
			}
		}
		cancel()
		<-served // returns although the shard has not read the queued lines

		// Release the stalled document once the good batch has queued
		// behind the abandoned lines.
		go func() {
			for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
				if st, err := srv.Stats(); err != nil || st.Shards[0].QueueDepth == 4 {
					break
				}
			}
			stall.Write([]byte("<a> </a>"))
			stall.Close()
		}()
		_, got := postBatch(t, ts.Client(), ts.URL, good.String())
		checkGood(t, got)
		<-stallDone
	})

	t.Run("network disconnect", func(t *testing.T) {
		_, ts := testServer(t, Config{BundlePath: bundle, Shards: 2, QueueDepth: 2})
		client := ts.Client()
		for round := 0; round < 3; round++ {
			ctx, cancel := context.WithCancel(context.Background())
			pr, pw := io.Pipe()
			req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/batch", pr)
			if err != nil {
				t.Fatal(err)
			}
			firstLine := make(chan struct{})
			dropped := make(chan struct{})
			go func() {
				defer close(dropped)
				resp, err := client.Do(req)
				if err != nil {
					close(firstLine)
					return
				}
				defer resp.Body.Close()
				bufio.NewReader(resp.Body).ReadString('\n')
				close(firstLine)
				io.Copy(io.Discard, resp.Body)
			}()
			go func() {
				for i := 0; i < 40; i++ {
					if _, err := pw.Write(bigLine); err != nil {
						return
					}
				}
				pw.Close()
			}()
			<-firstLine
			cancel()
			pw.CloseWithError(context.Canceled)
			_, got := postBatch(t, client, ts.URL, good.String())
			checkGood(t, got)
			<-dropped
		}
	})
}

// holdShard occupies a shard with a /v1/documents request whose body never
// finishes arriving until the returned writer is closed.  It returns once
// the shard worker has started reading that body, so documents submitted
// afterwards queue behind it; the channel closes when the request has been
// answered.
func holdShard(t *testing.T, srv *Server) (*io.PipeWriter, chan struct{}) {
	t.Helper()
	pw, done, _ := holdDocument(t, srv, "hold")
	return pw, done
}

// firstRead closes reading on its first Read: the reader has been taken up
// by whoever consumes the request body.
type firstRead struct {
	r       io.Reader
	reading chan struct{}
	once    sync.Once
}

func (f *firstRead) Read(p []byte) (int, error) {
	f.once.Do(func() { close(f.reading) })
	return f.r.Read(p)
}
