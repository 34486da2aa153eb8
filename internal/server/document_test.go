package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"
)

// documentAllocs is what one /v1/documents request allocates in the
// handler and everything below it: the value slice Header().Set makes for
// Content-Type.  The body limit, the future, its verdicts and the response
// line are recycled.
const documentAllocs = 1

// minimalWriter is a ResponseWriter that keeps one header map and counts
// what is written, so a pin measures the handler rather than net/http.
type minimalWriter struct {
	h    http.Header
	code int
	body []byte
}

func (w *minimalWriter) Header() http.Header { return w.h }

func (w *minimalWriter) WriteHeader(code int) { w.code = code }

func (w *minimalWriter) Write(p []byte) (int, error) {
	w.body = append(w.body, p...)
	return len(p), nil
}

// TestHandleDocumentAllocs pins the /v1/documents handler: serving a
// document through a reused request and a minimal ResponseWriter makes
// exactly documentAllocs allocations.
func TestHandleDocumentAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops Puts at random")
	}
	srv, _ := testServer(t, Config{Shards: 2})
	const doc = "<a> b <zz> yyy </zz> <c> nested b </c> words </a>"
	body := strings.NewReader(doc)
	req := httptest.NewRequest(http.MethodPost, "/v1/documents?id=doc-17", nil)
	req.Body = io.NopCloser(body)
	w := &minimalWriter{h: http.Header{}}
	run := func() {
		body.Reset(doc)
		w.code, w.body = 0, w.body[:0]
		srv.handleDocument(w, req)
	}
	run()
	if w.code != http.StatusOK || !strings.HasPrefix(string(w.body), `{"id":"doc-17",`) {
		t.Fatalf("document answered %d: %s", w.code, w.body)
	}
	if allocs := testing.AllocsPerRun(100, run); allocs != documentAllocs {
		t.Errorf("/v1/documents made %v allocs/op, want %d (the Content-Type value slice)", allocs, documentAllocs)
	}
}

// TestOversizedBodyClosesConnection checks the body limit end to end over
// a real connection: a body past MaxBodyBytes is answered 413 with
// http.MaxBytesError's text, and the server closes the connection after
// the reply rather than read the rest of the body as the next request.
func TestOversizedBodyClosesConnection(t *testing.T) {
	const limit = 64
	_, ts := testServer(t, Config{Shards: 1, MaxBodyBytes: limit})
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	big := "<a>" + strings.Repeat("x ", 200) + "</a>"
	if _, err := fmt.Fprintf(conn, "POST /v1/documents?id=big HTTP/1.1\r\nHost: test\r\nContent-Length: %d\r\n\r\n%s", len(big), big); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	var e errorBody
	err = json.NewDecoder(resp.Body).Decode(&e)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if want := (&http.MaxBytesError{Limit: limit}).Error(); resp.StatusCode != http.StatusRequestEntityTooLarge || e.Error != want {
		t.Fatalf("oversized body: %d %q, want 413 %q", resp.StatusCode, e.Error, want)
	}
	if !resp.Close {
		t.Error("413 does not announce Connection: close")
	}
	if n, err := br.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("after the 413 the connection read %d bytes, %v; want it closed (EOF)", n, err)
	}
}

// TestDocumentWaitsForDequeue pins the bound on a /v1/documents handler
// whose client has gone: it waits for its future without the request's
// context, so it is still waiting while its job sits behind a stalled
// document, and it returns — 503, the pass refused as cancelled — once the
// shard dequeues the job.
func TestDocumentWaitsForDequeue(t *testing.T) {
	srv, _ := testServer(t, Config{Shards: 1, QueueDepth: 4})
	stall, stallDone := holdShard(t, srv)
	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodPost, "/v1/documents?id=gone", strings.NewReader("<a> b </a>")).WithContext(ctx)
	rec := httptest.NewRecorder()
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.Handler().ServeHTTP(rec, req)
	}()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		st, err := srv.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if st.Shards[0].QueueDepth == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the document never queued behind the stalled one")
		}
	}
	cancel() // the client leaves
	select {
	case <-served:
		t.Fatal("the handler returned while its job was still queued")
	default:
	}
	stall.Write([]byte("<a> </a>"))
	stall.Close()
	select {
	case <-served:
	case <-time.After(10 * time.Second):
		t.Fatal("the handler did not return once its job left the queue")
	}
	<-stallDone
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), context.Canceled.Error()) {
		t.Fatalf("abandoned document answered %d: %s", rec.Code, rec.Body)
	}
	st, err := srv.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Canceled != 1 {
		t.Errorf("%d cancelled documents, want 1", st.Canceled)
	}
}

// TestRecycledFutures abandons /v1/batch requests while their lines still
// wait for the shard, then serves /v1/documents and /v1/batch traffic
// that reuses the futures recycled as the shard works through the
// abandoned lines.  Every verdict must equal serial evaluation.  The pool
// panics if it hands out a future something still references, so a
// future handed out twice fails the request that got it; under -race the
// test also checks that no future is reset while its shard writes it.
func TestRecycledFutures(t *testing.T) {
	bundle := writeTestBundle(t)
	rng := rand.New(rand.NewSource(71))
	corpus := testCorpus(rng, 40)
	want, names := serialVerdicts(t, bundle, corpus)
	var good strings.Builder
	enc := json.NewEncoder(&good)
	for i, doc := range corpus {
		enc.Encode(batchLine{ID: fmt.Sprintf("doc-%d", i), Doc: doc})
	}
	lines := strings.SplitAfter(good.String(), "\n")
	abandon := strings.Join(lines[:3], "")

	srv, ts := testServer(t, Config{BundlePath: bundle, Shards: 1, QueueDepth: 16})
	client := ts.Client()
	check := func(where string, i int, verdicts map[string]bool) {
		for _, name := range names {
			if verdicts[name] != want[i][name] {
				t.Errorf("%s doc %d query %q: %v, serial %v", where, i, name, verdicts[name], want[i][name])
			}
		}
	}
	for round := 0; round < 3; round++ {
		stall, stallDone := holdShard(t, srv)
		ctx, cancel := context.WithCancel(context.Background())
		req := httptest.NewRequest(http.MethodPost, "/v1/batch", strings.NewReader(abandon)).WithContext(ctx)
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
		<-served // every future of the batch is released, none served yet
		stall.Write([]byte("<a> </a>"))
		stall.Close()

		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := g; i < len(corpus); i += 4 {
					resp, err := client.Post(fmt.Sprintf("%s/v1/documents?id=doc-%d", ts.URL, i), "text/plain", strings.NewReader(corpus[i]))
					if err != nil {
						t.Error(err)
						return
					}
					var res DocumentResult
					err = json.NewDecoder(resp.Body).Decode(&res)
					resp.Body.Close()
					if err != nil || resp.StatusCode != http.StatusOK || res.ID != fmt.Sprintf("doc-%d", i) {
						t.Errorf("document %d: status %d, %+v, %v", i, resp.StatusCode, res, err)
						return
					}
					check("document", i, res.Verdicts)
				}
			}(g)
		}
		_, got := postBatch(t, client, ts.URL, good.String())
		wg.Wait()
		<-stallDone
		if len(got) != len(corpus) {
			t.Fatalf("round %d: %d batch lines, want %d", round, len(got), len(corpus))
		}
		for i, res := range got {
			if res.Error != "" || res.ID != fmt.Sprintf("doc-%d", i) {
				t.Fatalf("round %d batch line %d: %+v", round, i, res)
			}
			check("batch", i, res.Verdicts)
		}
	}
}

// TestBatchPoolsSeparate pins that batch lines recycle through a pool of
// their own: after a batch whose one line is far longer than any response,
// that line's array is back in the line pool, while no recycled request
// state holds an array of its size as a response buffer.  One P and no GC
// keep the pools from losing what the request put back.
func TestBatchPoolsSeparate(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops Puts at random")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	srv, _ := testServer(t, Config{Shards: 1})
	line, err := json.Marshal(batchLine{ID: "long", Doc: "<a>" + strings.Repeat(" <b> x </b>", 8000) + " </a>"})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/batch", strings.NewReader(string(line)+"\n")))
	if rec.Code != http.StatusOK || !strings.HasPrefix(rec.Body.String(), `{"id":"long",`) {
		t.Fatalf("batch answered %d: %s", rec.Code, rec.Body)
	}

	const draws = 64
	found := false
	var keepLines []*lineBuffer
	for i := 0; i < draws && !found; i++ {
		l := getLine()
		found = cap(l.b) >= len(line)
		keepLines = append(keepLines, l)
	}
	if !found {
		t.Errorf("the %d-byte line's array did not return to the line pool", len(line))
	}
	bodyReaders := 0
	var keepRequests []*request
	for i := 0; i < draws; i++ {
		q := getRequest()
		if cap(q.out) >= len(line) {
			t.Fatalf("a recycled request state holds a %d-byte response buffer", cap(q.out))
		}
		if q.br != nil {
			bodyReaders++
		}
		keepRequests = append(keepRequests, q)
	}
	if bodyReaders == 0 {
		t.Error("the batch's body reader did not return with its request state")
	}
	for _, l := range keepLines {
		l.free()
	}
	for _, q := range keepRequests {
		q.free()
	}
}
