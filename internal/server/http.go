package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/serve"
)

// DocumentResult is the JSON verdict for one served document: which shard
// ran it, how many events the pass consumed, the maximum nesting depth
// observed, and every registered query's verdict by bundle name.
//
//nwvet:oracle TestVerdictEncoderOracle holds the verdict encoder to its encoding/json form
type DocumentResult struct {
	ID       string          `json:"id"`
	Shard    int             `json:"shard"`
	Events   int             `json:"events"`
	MaxDepth int             `json:"max_depth"`
	Verdicts map[string]bool `json:"verdicts"`
}

// errorBody is the JSON error envelope for every non-2xx response.
type errorBody struct {
	Error string `json:"error"`
}

// statusDoc is the GET /v1/status document: the active bundle generation's
// identity (the same schema `nwtool bundle -json` prints), the pool shape,
// and a snapshot of the serving counters.
type statusDoc struct {
	BundleInfo    BundleInfo    `json:"bundle_info"`
	Shards        int           `json:"shards"`
	QueueCap      int           `json:"queue_cap"`
	UptimeSec     float64       `json:"uptime_sec"`
	Reloads       int64         `json:"reloads"`
	EventsPerSec  float64       `json:"events_per_sec"`
	Served        int64         `json:"served"`
	Failed        int64         `json:"failed"`
	Canceled      int64         `json:"canceled"`
	Rejected      int64         `json:"rejected"`
	Events        int64         `json:"events"`
	ShardStats    []shardStatus `json:"shard_stats"`
	LatencyP50Sec float64       `json:"latency_p50_sec"`
	LatencyP90Sec float64       `json:"latency_p90_sec"`
	LatencyP99Sec float64       `json:"latency_p99_sec"`
	LatencyMaxSec float64       `json:"latency_max_sec"`
}

// shardStatus is one shard's row in the status document.
type shardStatus struct {
	Shard      int   `json:"shard"`
	QueueDepth int   `json:"queue_depth"`
	QueueCap   int   `json:"queue_cap"`
	Served     int64 `json:"served"`
	Failed     int64 `json:"failed"`
	Events     int64 `json:"events"`
}

// Handler returns the Server's route table, ready to mount on an
// http.Server (or httptest).  Routes:
//
//	POST /v1/documents[?id=ID][&format=xml|json|trace]
//	                            serve one document (body = document text;
//	                            format routes the body through the matching
//	                            internal/adapter event source instead of the
//	                            native tokenizer)
//	POST /v1/batch              serve an NDJSON stream of documents (a line's
//	                            optional "format" field works like ?format=)
//	POST /v1/reload             swap in a freshly opened bundle
//	GET  /v1/bundle             the active generation's raw NWQ1 container
//	                            (ETag = content hash, If-None-Match → 304) —
//	                            how peers self-provision (docs/DISTRIBUTION.md)
//	GET  /v1/bundle.sig         the generation's detached NWS1 signature
//	                            envelope (404 when the bundle is unsigned)
//	GET  /v1/status             bundle identity + serving counters (JSON)
//	GET  /metrics               Prometheus text exposition
//	GET  /debug/vars            expvar JSON
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/documents", s.handleDocument)
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("POST /v1/reload", s.handleReload)
	mux.HandleFunc("GET /v1/bundle", s.handleBundle)
	mux.HandleFunc("GET /v1/bundle.sig", s.handleBundleSig)
	mux.HandleFunc("GET /v1/status", s.handleStatus)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.Handle("GET /debug/vars", expvar.Handler())
	return mux
}

// writeJSON writes one JSON response with the given status code.  It
// serves the cold endpoints and error envelopes; verdicts go through the
// generation's verdictTable instead.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// writeError maps a serving error to its HTTP status and JSON envelope.
// The two serve sentinels get their contract codes — ErrQueueFull is 429
// (transient overload, shed at the edge), ErrClosed and a closed Server
// are 503 (going away, retry elsewhere) — both with Retry-After.  An
// oversized body is 413, everything else (tokenizer errors, malformed
// batch lines) is 400.
func writeError(w http.ResponseWriter, err error) {
	var maxErr *http.MaxBytesError
	code := http.StatusBadRequest
	switch {
	case errors.Is(err, serve.ErrQueueFull):
		code = http.StatusTooManyRequests
		w.Header().Set("Retry-After", "1")
	case errors.Is(err, serve.ErrClosed), errors.Is(err, errServerClosed):
		code = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", "1")
	case errors.As(err, &maxErr):
		code = http.StatusRequestEntityTooLarge
		// The rest of the body stays unread, so the connection cannot
		// carry another request: net/http closes it after the reply, as
		// it does when http.MaxBytesReader trips.
		w.Header().Set("Connection", "close")
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, errorBody{Error: err.Error()})
}

// handleDocument serves POST /v1/documents: the request body is one
// document in the XML-like syntax — or, with ?format=xml|json|trace, in
// that real input format, decoded by the shard's adapter for it — the
// optional ?id= names it and picks its shard, and the response is its
// DocumentResult.  Submission is fail-fast (TrySubmit): a full shard queue
// answers 429 immediately instead of parking the handler goroutine —
// per-request backpressure belongs to the batch endpoint.  The shard
// worker reads the body while this handler blocks on the future, so the
// body is read from exactly one goroutine at a time.
//
// The handler waits for its future without the request's context: the
// job carries that context, and its shard reports a document whose
// context has ended when it dequeues it, or aborts the pass within 1024
// events, so the wait ends no later than the job's turn in the queue.
// Waiting so makes no done channel for the context, and leaves the
// recycled request state free once the future resolves.
func (s *Server) handleDocument(w http.ResponseWriter, r *http.Request) {
	st, err := s.acquire()
	if err != nil {
		writeError(w, err)
		return
	}
	defer st.release()

	id := queryValue(r.URL.RawQuery, "id")
	if id == "" {
		id = s.fallbackID()
	}
	req := getRequest()
	defer req.free()
	req.body = bodyLimit{r: r.Body, left: s.cfg.MaxBodyBytes, limit: s.cfg.MaxBodyBytes}
	fut, err := st.pool.TrySubmit(r.Context(), id, queryValue(r.URL.RawQuery, "format"), &req.body)
	if err != nil {
		writeError(w, err)
		return
	}
	defer fut.Release()
	res, err := fut.Wait(context.Background())
	if err != nil {
		writeError(w, err)
		return
	}
	req.out = st.verdicts.appendResult(req.out, res)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(req.out)
}

// bodyLimit reads a request body as http.MaxBytesReader does, failing with
// an *http.MaxBytesError once the body runs past limit bytes.  It lives in
// the recycled request state, so a document does not allocate the reader
// MaxBytesReader returns; writeError answers the error with 413 and closes
// the connection.
type bodyLimit struct {
	r     io.Reader
	left  int64 // bytes still allowed
	limit int64
	err   error // sticky: once a read fails, every later read does
}

func (l *bodyLimit) Read(p []byte) (int, error) {
	if l.err != nil {
		return 0, l.err
	}
	if len(p) == 0 {
		return 0, nil
	}
	// One byte past the limit tells a body that ends there from one that
	// runs on.
	if int64(len(p))-1 > l.left {
		p = p[:l.left+1]
	}
	n, err := l.r.Read(p)
	if int64(n) <= l.left {
		l.left -= int64(n)
		l.err = err
		return n, err
	}
	n = int(l.left)
	l.left = 0
	l.err = &http.MaxBytesError{Limit: l.limit}
	return n, l.err
}

// queryValue returns url.ParseQuery(rawQuery).Get(key) without building the
// map of every parameter: the first pair whose unescaped key is key wins,
// and pairs holding a semicolon or a malformed escape are skipped, as
// ParseQuery skips them.  QueryUnescape returns a key or value with nothing
// to unescape as it is, a substring of rawQuery, so the usual request
// allocates nothing here.
//
//nwvet:hotpath
func queryValue(rawQuery, key string) string {
	for rawQuery != "" {
		var pair string
		pair, rawQuery, _ = strings.Cut(rawQuery, "&")
		if pair == "" || strings.Contains(pair, ";") {
			continue
		}
		k, v, _ := strings.Cut(pair, "=")
		if k, err := url.QueryUnescape(k); err != nil || k != key {
			continue
		}
		if v, err := url.QueryUnescape(v); err == nil {
			return v
		}
	}
	return ""
}

// fallbackID names a document whose client sent no ID.
func (s *Server) fallbackID() string {
	return "doc-" + strconv.FormatInt(s.nextID.Add(1), 10)
}

// handleBatch serves POST /v1/batch: the request body is NDJSON, one
// {"id","doc","format"} object per line (format, when present, works like
// ?format= on /v1/documents), and the response is NDJSON with one verdict
// line per input line, in input order regardless of which shards ran
// them: the line's DocumentResult, or its ID, null verdicts and an
// "error" string when that document failed.  Submission uses the
// blocking path — the pool's bounded queues throttle the body read, so a
// fast client is slowed to the automaton workers' speed instead of
// queueing unboundedly.  Per-document failures become error lines; the
// stream keeps going.
//
// The body is read through the recycled request state's buffered reader.
// Each line is read into a recycled line buffer, decoded in place, and its
// document submitted as a reader over that buffer, so a document's bytes
// are not copied between the body read and the shard's tokenizer.  The
// line goes back to its pool when it is blank or malformed, when Submit
// fails, or once the document has been served; a document abandoned
// because the request ended leaves its line to the garbage collector,
// since its shard may still be reading it.  Each future is released once
// its response line is encoded; an abandoned one returns to its pool when
// its shard finishes.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	st, err := s.acquire()
	if err != nil {
		writeError(w, err)
		return
	}
	defer st.release()

	w.Header().Set("Content-Type", "application/x-ndjson")

	// HTTP/1 closes the unread part of the request body at the first
	// response flush, which would truncate a batch whose lines are still
	// arriving while early verdicts stream out; full-duplex mode keeps the
	// body readable.  (HTTP/2 is full duplex already; an unsupported
	// ResponseWriter just stays half duplex.)
	_ = http.NewResponseController(w).EnableFullDuplex()

	// Pipeline: the reader goroutine submits with backpressure and hands
	// futures down a bounded channel; this goroutine resolves them in
	// order and streams response lines.  Total in-flight work is bounded
	// by the pool queues plus the channel.
	futs := make(chan batchPending, 2*st.pool.Shards())
	req := getRequest()
	defer req.free() // after the loop below, so after the reader's last read
	br := req.bodyReader(r.Body)
	go func() {
		defer close(futs)
		for n := 0; ; {
			buf := getLine()
			var err error
			buf.b, err = readLine(br, buf.b, int(s.cfg.MaxBodyBytes))
			if err == errLineTooLong {
				buf.free()
				futs <- batchPending{id: "body", err: err}
				return
			}
			if line := bytes.TrimSpace(buf.b); len(line) > 0 {
				n++
				futs <- s.submitLine(r.Context(), st, n, line, buf)
			} else {
				buf.free()
			}
			if err != nil {
				if err != io.EOF {
					futs <- batchPending{id: "body", err: err}
				}
				return
			}
		}
	}()

	flusher, _ := w.(http.Flusher)
	for p := range futs {
		switch {
		case p.err != nil:
			req.out = appendError(req.out[:0], p.id, p.err.Error())
		default:
			res, err := p.fut.Wait(r.Context())
			if err != nil {
				req.out = appendError(req.out[:0], p.id, err.Error())
			} else {
				req.out = st.verdicts.appendResult(req.out[:0], res)
			}
			// Wait returns the zero Result when the request ended first:
			// the shard may still read the line then.
			if res.Engine != nil || res.Err != nil {
				p.buf.free()
			}
			p.fut.Release()
		}
		w.Write(req.out)
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// batchPending is one batch line on its way to the response: the
// document's ID and future, and the line buffer its shard reads — or the
// error that already decided the line.
type batchPending struct {
	id  string
	fut *serve.Future
	buf *lineBuffer
	err error
}

// submitLine decodes the batch's nth non-blank line, which buf holds, and
// submits its document as a reader over buf.  buf is freed here unless a
// shard now owns it.
func (s *Server) submitLine(ctx context.Context, st *poolState, n int, line []byte, buf *lineBuffer) batchPending {
	fields, err := decodeBatchLine(line)
	if err != nil {
		buf.free()
		return batchPending{id: "line-" + strconv.Itoa(n), err: fmt.Errorf("malformed batch line: %w", err)}
	}
	id := string(fields[fieldID])
	if id == "" {
		id = s.fallbackID()
	}
	buf.rd.Reset(fields[fieldDoc])
	fut, err := st.pool.Submit(ctx, id, string(fields[fieldFormat]), &buf.rd)
	if err != nil {
		buf.free()
		return batchPending{id: id, err: err}
	}
	return batchPending{id: id, fut: fut, buf: buf}
}

// handleReload serves POST /v1/reload: re-open the bundle path, hand the
// shards its engine, swap.  The response is the new generation's BundleInfo.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	info, err := s.Reload()
	if err != nil {
		if errors.Is(err, errServerClosed) {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// handleBundle serves GET /v1/bundle: the active generation's raw NWQ1
// container bytes, so a peer booted with -queryset-url self-provisions
// from this server.  The ETag is the container's quoted hex content hash —
// the same value the bundlecache keys entries by — and a matching
// If-None-Match answers 304 with no body, so a fleet's periodic refresh
// is one conditional request per worker.  The bytes are written while
// holding a generation reference, so the mapped region cannot be unmapped
// mid-response even if a reload swaps generations.
func (s *Server) handleBundle(w http.ResponseWriter, r *http.Request) {
	st, err := s.acquire()
	if err != nil {
		writeError(w, err)
		return
	}
	defer st.release()
	w.Header().Set("ETag", st.etag)
	if noneMatch(r.Header.Values("If-None-Match"), st.etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(st.raw)))
	w.Write(st.raw)
}

// noneMatch evaluates If-None-Match field lines against the current
// representation's ETag as RFC 9110 §13.1.2 does: "*" matches any current
// representation, and the comparison is weak, so a W/ prefix on a listed
// tag does not matter.
func noneMatch(fields []string, etag string) bool {
	for _, field := range fields {
		for _, tag := range strings.Split(field, ",") {
			tag = strings.TrimSpace(tag)
			if tag == "*" || strings.TrimPrefix(tag, "W/") == etag {
				return true
			}
		}
	}
	return false
}

// handleBundleSig serves GET /v1/bundle.sig: the detached NWS1 signature
// envelope that shipped next to the active bundle, or 404 when it was
// loaded unsigned.
func (s *Server) handleBundleSig(w http.ResponseWriter, r *http.Request) {
	st, err := s.acquire()
	if err != nil {
		writeError(w, err)
		return
	}
	defer st.release()
	if len(st.sig) == 0 {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "bundle is unsigned"})
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(st.sig)))
	w.Write(st.sig)
}

// status assembles the status document from the active generation.
func (s *Server) status() (statusDoc, error) {
	st, err := s.acquire()
	if err != nil {
		return statusDoc{}, err
	}
	defer st.release()
	stats := st.pool.Stats()
	out := statusDoc{
		BundleInfo:    st.info,
		Shards:        st.pool.Shards(),
		QueueCap:      st.pool.QueueCap(),
		UptimeSec:     time.Since(s.start).Seconds(),
		Reloads:       s.reloads.Load(),
		EventsPerSec:  s.rates.observe(time.Now(), stats.Events),
		Served:        stats.Served,
		Failed:        stats.Failed,
		Canceled:      stats.Canceled,
		Rejected:      stats.Rejected,
		Events:        stats.Events,
		LatencyP50Sec: stats.Latency.P50.Seconds(),
		LatencyP90Sec: stats.Latency.P90.Seconds(),
		LatencyP99Sec: stats.Latency.P99.Seconds(),
		LatencyMaxSec: stats.Latency.Max.Seconds(),
	}
	for _, sh := range stats.Shards {
		out.ShardStats = append(out.ShardStats, shardStatus{
			Shard:      sh.Shard,
			QueueDepth: sh.QueueDepth,
			QueueCap:   sh.QueueCap,
			Served:     sh.Served,
			Failed:     sh.Failed,
			Events:     sh.Events,
		})
	}
	return out, nil
}

// handleStatus serves GET /v1/status.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, err := s.status()
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}
