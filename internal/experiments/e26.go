package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/alphabet"
	"repro/internal/docstream"
	"repro/internal/engine"
	"repro/internal/generator"
	"repro/internal/query"
	"repro/internal/serve"
	"repro/internal/server"
)

// E26HTTPServing measures the HTTP front-end under open-loop load: the same
// document corpus arrives on a fixed schedule — one submission every
// interval, fired whether or not earlier documents finished, the way real
// traffic arrives — twice per shard count: once as POST /v1/documents
// requests against an internal/server instance, once as direct serve.Pool
// submissions with no HTTP in the path.  The arrival interval is calibrated
// from the measured serial per-document service time so that one shard is
// oversaturated (offered load ≈ 1.5× one worker's capacity) and additional
// shards must drain the queue; the p50/p99 columns are exact percentiles
// over per-document latencies measured from the scheduled arrival instant
// (coordinated omission counted, not hidden).  The gap between the http and
// pool columns is the network front-end's tax — connection handling, JSON
// encoding, verdict-map construction; the fall of p99 as shards rise is the
// sharded pool absorbing the same offered load with real parallelism.
// Every response must carry verdicts identical to serial evaluation.
func E26HTTPServing(docs, size int) Table {
	alpha := alphabet.New(e21Labels...)

	// Compile the 8-query E21 mix into a bundle file, the artifact a real
	// deployment would serve from.
	names, queries := E21Queries(alpha, 8)
	bundle := query.NewBundle(alpha)
	for i, d := range queries {
		if err := bundle.Add(names[i], query.Compile(d)); err != nil {
			panic(err)
		}
	}
	dir, err := os.MkdirTemp("", "e26-bundle-")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	bundlePath := filepath.Join(dir, "queries.nwq")
	if err := os.WriteFile(bundlePath, bundle.Marshal(), 0o644); err != nil {
		panic(err)
	}

	// Render the corpus as document text so the identical bytes travel over
	// HTTP, into pool readers, and through the serial baseline.
	rng := rand.New(rand.NewSource(e21Seed))
	corpus := make([]string, docs)
	for i := range corpus {
		corpus[i] = docstream.Render(generator.RandomDocument(rng, size, 16, e21Labels))
	}

	// Serial baseline: ground-truth verdicts and the per-document service
	// time that calibrates the open-loop arrival rate.
	serialEng := engine.New()
	{
		b, err := query.OpenBundle(bundlePath)
		if err != nil {
			panic(err)
		}
		defer b.Close()
		if _, err := serialEng.RegisterBundle(b); err != nil {
			panic(err)
		}
	}
	serialVerdicts := make([][]bool, docs)
	t0 := time.Now()
	for i, doc := range corpus {
		r, err := serialEng.RunReader(strings.NewReader(doc))
		if err != nil {
			panic(err)
		}
		serialVerdicts[i] = r.Verdicts
	}
	perDoc := time.Since(t0) / time.Duration(docs)

	// Offered load ≈ 1.5× one worker's throughput, floored so HTTP
	// connection handling on loopback is not itself the bottleneck.
	interval := perDoc * 2 / 3
	if interval < 50*time.Microsecond {
		interval = 50 * time.Microsecond
	}
	offered := 1e9 / float64(interval.Nanoseconds())

	us := func(d time.Duration) string { return ftoa(float64(d.Nanoseconds()) / 1e3) }
	rows := [][]string{}
	for _, shards := range []int{1, 2, 4, 8} {
		httpLat, httpAgree := e26HTTPRun(bundlePath, corpus, serialVerdicts, names, shards, interval)
		poolLat, poolAgree := e26PoolRun(bundlePath, corpus, serialVerdicts, shards, interval)
		rows = append(rows, []string{
			itoa(shards), ftoa(offered),
			us(percentile(httpLat, 0.50)), us(percentile(httpLat, 0.99)),
			us(percentile(poolLat, 0.50)), us(percentile(poolLat, 0.99)),
			ftoa(float64(percentile(httpLat, 0.99)) / float64(percentile(poolLat, 0.99))),
			btoa(httpAgree && poolAgree),
		})
	}
	return Table{
		Name:   "E26 (server): open-loop HTTP serving vs direct pool submission, latency vs shard count",
		Header: []string{"shards", "offered docs/s", "http p50 µs", "http p99 µs", "pool p50 µs", "pool p99 µs", "http/pool p99", "agree"},
		Rows:   rows,
	}
}

// e26Schedule fires one call per corpus document on the open-loop arrival
// schedule and returns per-document latencies measured from each document's
// scheduled arrival instant.
func e26Schedule(n int, interval time.Duration, submit func(i int) bool) ([]time.Duration, bool) {
	lat := make([]time.Duration, n)
	ok := make([]bool, n)
	start := time.Now().Add(time.Millisecond)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			due := start.Add(time.Duration(i) * interval)
			time.Sleep(time.Until(due))
			ok[i] = submit(i)
			lat[i] = time.Since(due)
		}(i)
	}
	wg.Wait()
	agree := true
	for _, o := range ok {
		agree = agree && o
	}
	return lat, agree
}

// e26HTTPRun serves the corpus over POST /v1/documents against a fresh
// server at the given shard count, on the open-loop schedule.  The queue
// depth is sized to the corpus so saturation shows up as latency, not as
// 429 rejections.
func e26HTTPRun(bundlePath string, corpus []string, want [][]bool, names []string, shards int, interval time.Duration) ([]time.Duration, bool) {
	srv, err := server.New(server.Config{
		BundlePath: bundlePath,
		Shards:     shards,
		QueueDepth: len(corpus),
	})
	if err != nil {
		panic(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Close()
	}()
	client := ts.Client()
	client.Transport.(*http.Transport).MaxIdleConnsPerHost = 256

	return e26Schedule(len(corpus), interval, func(i int) bool {
		resp, err := client.Post(fmt.Sprintf("%s/v1/documents?id=doc-%d", ts.URL, i), "text/plain", strings.NewReader(corpus[i]))
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			io.Copy(io.Discard, resp.Body)
			return false
		}
		var res server.DocumentResult
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			return false
		}
		for q, name := range names {
			if res.Verdicts[name] != want[i][q] {
				return false
			}
		}
		return true
	})
}

// e26PoolRun serves the corpus by direct pool submission — the same shard
// count, queue depth, and document bytes, with no HTTP in the path.
func e26PoolRun(bundlePath string, corpus []string, want [][]bool, shards int, interval time.Duration) ([]time.Duration, bool) {
	b, err := query.OpenBundle(bundlePath)
	if err != nil {
		panic(err)
	}
	defer b.Close()
	pool, err := serve.NewPoolFromBundle(b,
		serve.WithShards(shards),
		serve.WithQueueDepth(len(corpus)))
	if err != nil {
		panic(err)
	}
	defer pool.Close()

	return e26Schedule(len(corpus), interval, func(i int) bool {
		fut, err := pool.Submit(context.Background(), fmt.Sprintf("doc-%d", i), "", strings.NewReader(corpus[i]))
		if err != nil {
			return false
		}
		res, err := fut.Wait(context.Background())
		if err != nil {
			return false
		}
		for q := range want[i] {
			if res.Engine.Verdicts[q] != want[i][q] {
				return false
			}
		}
		return true
	})
}

// percentile returns the exact q-quantile of the samples (nearest-rank).
func percentile(samples []time.Duration, q float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(q*float64(len(s))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}
