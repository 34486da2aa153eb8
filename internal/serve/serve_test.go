package serve

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/adapter"
	"repro/internal/alphabet"
	"repro/internal/docstream"
	"repro/internal/engine"
	"repro/internal/generator"
	"repro/internal/nestedword"
	"repro/internal/nwa"
	"repro/internal/query"
)

// testEngine builds an engine with a mixed query set — deterministic and
// nondeterministic, path, order, and validation — over the {a,b,c} alphabet.
func testEngine(t testing.TB) *engine.Engine {
	t.Helper()
	alpha := alphabet.New("a", "b", "c")
	eng := engine.New()
	for _, q := range []struct {
		name string
		d    *nwa.DNWA
	}{
		{"well-formed", query.WellFormed(alpha)},
		{"//a//b", query.PathQuery(alpha, "a", "b")},
		{"order a,b,c", query.LinearOrder(alpha, "a", "b", "c")},
		{"contains c", query.ContainsLabel(alpha, "c")},
		{"//c//b//a", query.PathQuery(alpha, "c", "b", "a")},
	} {
		if _, err := eng.RegisterQuery(q.name, query.Compile(q.d)); err != nil {
			t.Fatal(err)
		}
	}
	return eng
}

// randomEvents builds a random event stream that is deliberately not always
// well matched: returns may be pending, calls may stay open, and labels may
// fall outside the engine alphabet.
func randomEvents(rng *rand.Rand, size int) []docstream.Event {
	labels := []string{"a", "b", "c", "zzz-out-of-alphabet"}
	events := make([]docstream.Event, size)
	for i := range events {
		label := labels[rng.Intn(len(labels))]
		switch rng.Intn(3) {
		case 0:
			events[i] = docstream.Event{Kind: nestedword.Call, Label: label}
		case 1:
			events[i] = docstream.Event{Kind: nestedword.Return, Label: label}
		default:
			events[i] = docstream.Event{Kind: nestedword.Internal, Label: label}
		}
	}
	return events
}

// TestPoolMatchesSerialEngine is the differential acceptance test: on 1200
// random documents — streaming-generator documents and adversarial streams
// with pending calls/returns and out-of-alphabet labels — the pool's verdict
// sets must be identical to serial engine evaluation, for both affinities
// and several shard counts.
func TestPoolMatchesSerialEngine(t *testing.T) {
	eng := testEngine(t)
	rng := rand.New(rand.NewSource(23))
	const docs = 1200
	corpus := make([][]docstream.Event, docs)
	for i := range corpus {
		if i%2 == 0 {
			stream := generator.NewDocumentStream(int64(i), 40+rng.Intn(400), 12, []string{"a", "b", "c"})
			for {
				e, err := stream.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				corpus[i] = append(corpus[i], e)
			}
		} else {
			corpus[i] = randomEvents(rng, 20+rng.Intn(200))
		}
	}

	serial := make([]*engine.Result, docs)
	for i, events := range corpus {
		r, err := eng.Run(engine.Events(events))
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = r
	}

	for _, shards := range []int{1, 3, 8} {
		pool, err := NewPool(eng, WithShards(shards), WithQueueDepth(4))
		if err != nil {
			t.Fatal(err)
		}
		futures := make([]*Future, docs)
		for i, events := range corpus {
			futures[i], err = pool.SubmitEvents(context.Background(), fmt.Sprintf("doc-%d", i), events)
			if err != nil {
				t.Fatal(err)
			}
		}
		for i, f := range futures {
			res, err := f.Wait(context.Background())
			if err != nil {
				t.Fatalf("shards=%d doc %d: %v", shards, i, err)
			}
			if got, want := res.Engine.Verdicts, serial[i].Verdicts; len(got) != len(want) {
				t.Fatalf("doc %d: %d verdicts, want %d", i, len(got), len(want))
			} else {
				for q := range want {
					if got[q] != want[q] {
						t.Errorf("shards=%d doc %d query %d: pool %v, serial %v",
							shards, i, q, got[q], want[q])
					}
				}
			}
			if res.Engine.Events != serial[i].Events || res.Engine.MaxDepth != serial[i].MaxDepth {
				t.Errorf("doc %d: pool events/depth %d/%d, serial %d/%d",
					i, res.Engine.Events, res.Engine.MaxDepth, serial[i].Events, serial[i].MaxDepth)
			}
		}
		st := pool.Stats()
		if st.Served != docs || st.Failed != 0 {
			t.Errorf("stats: served %d failed %d, want %d/0", st.Served, st.Failed, docs)
		}
		if err := pool.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPoolServesNNWAQuery threads a nondeterministic query through the
// whole serving stack: an NNWA is served as its determinization compiled to
// a DNWA, next to a hand-built DNWA for the same language ("contains label
// a"), and through a sharded pool it must agree with the NNWA's in-process
// state-set runner, with the hand-built query and with serial engine
// evaluation on every document — including adversarial streams with
// pending calls/returns and out-of-alphabet labels.
func TestPoolServesNNWAQuery(t *testing.T) {
	alpha := alphabet.New("a", "b", "c")
	// State 0 = "a not seen", 1 = "a seen"; the linear state carries the
	// flag across calls, so the hierarchical state is irrelevant and the
	// automaton accepts any word with an a-labelled position of any kind.
	seen := func(q int, sym string) int {
		if q == 1 || sym == "a" {
			return 1
		}
		return 0
	}
	n := nwa.NewNNWA(alpha, 2)
	n.AddStart(0).AddAccept(1)
	for q := 0; q < 2; q++ {
		for _, sym := range []string{"a", "b", "c"} {
			n.AddInternal(q, sym, seen(q, sym))
			n.AddCall(q, sym, seen(q, sym), q)
			for h := 0; h < 2; h++ {
				n.AddReturn(q, h, sym, seen(q, sym))
			}
		}
	}
	eng := engine.New()
	nnwaIdx, err := eng.RegisterQuery("contains a (determinized nnwa)", query.Compile(n.Determinize()))
	if err != nil {
		t.Fatal(err)
	}
	dnwaIdx, err := eng.RegisterQuery("contains a (dnwa)", query.Compile(query.ContainsLabel(alpha, "a")))
	if err != nil {
		t.Fatal(err)
	}
	oracle := query.CompileN(n).NewRunner()

	pool, err := NewPool(eng, WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(606))
	for d := 0; d < 150; d++ {
		var events []docstream.Event
		if d%2 == 0 {
			stream := generator.NewDocumentStream(int64(d), 20+rng.Intn(200), 8, []string{"a", "b", "c"})
			for {
				e, err := stream.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				events = append(events, e)
			}
		} else {
			events = randomEvents(rng, 10+rng.Intn(150))
		}
		serial, err := eng.Run(engine.Events(events))
		if err != nil {
			t.Fatal(err)
		}
		fut, err := pool.SubmitEvents(context.Background(), fmt.Sprintf("doc-%d", d), events)
		if err != nil {
			t.Fatal(err)
		}
		res, err := fut.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if nv, dv := res.Engine.Verdicts[nnwaIdx], res.Engine.Verdicts[dnwaIdx]; nv != dv {
			t.Fatalf("doc %d: determinized NNWA verdict %v, DNWA verdict %v", d, nv, dv)
		}
		if want := query.RunWord(oracle, alpha, docstream.ToNestedWord(events)); res.Engine.Verdicts[nnwaIdx] != want {
			t.Fatalf("doc %d: served determinized NNWA %v, NNWA runner %v", d, res.Engine.Verdicts[nnwaIdx], want)
		}
		for q := range serial.Verdicts {
			if res.Engine.Verdicts[q] != serial.Verdicts[q] {
				t.Fatalf("doc %d query %d: pool %v, serial %v", d, q, res.Engine.Verdicts[q], serial.Verdicts[q])
			}
		}
	}
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPoolReaderSubmission drives the per-shard reusable tokenizer path and
// checks it against the engine's own reader path.
func TestPoolReaderSubmission(t *testing.T) {
	eng := testEngine(t)
	docs := []string{
		"<a> <b> c </b> </a>",
		"<c> <b> <a> text </a> </b> </c>",
		"a b c a b c",
		"<a> dangling",
		"</b> stray close",
		"<a><b><c> deep </c></b></a> <unknown> x </unknown>",
	}
	serial := make([]*engine.Result, len(docs))
	for i, d := range docs {
		r, err := eng.RunReader(strings.NewReader(d))
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = r
	}
	pool, err := NewPool(eng, WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	// Several rounds so every shard's tokenizer is Reset and reused.
	for round := 0; round < 50; round++ {
		for i, d := range docs {
			f, err := pool.Submit(context.Background(), fmt.Sprintf("r%d-d%d", round, i), "", strings.NewReader(d))
			if err != nil {
				t.Fatal(err)
			}
			res, err := f.Wait(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			for q := range serial[i].Verdicts {
				if res.Engine.Verdicts[q] != serial[i].Verdicts[q] {
					t.Fatalf("round %d doc %d query %d: pool %v, serial %v",
						round, i, q, res.Engine.Verdicts[q], serial[i].Verdicts[q])
				}
			}
		}
	}
}

// TestPoolTokenizeError checks that a malformed document fails its own
// future without poisoning the shard for later documents.
func TestPoolTokenizeError(t *testing.T) {
	eng := testEngine(t)
	pool, err := NewPool(eng, WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	bad, err := pool.Submit(context.Background(), "bad", "", strings.NewReader("<a> <unterminated"))
	if err != nil {
		t.Fatal(err)
	}
	if res, err := bad.Wait(context.Background()); err == nil || res.Err == nil {
		t.Fatalf("malformed document: want error, got %+v", res)
	}
	good, err := pool.Submit(context.Background(), "good", "", strings.NewReader("<a> c </a>"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := good.Wait(context.Background())
	if err != nil {
		t.Fatalf("document after a failed one: %v", err)
	}
	if res.Engine.Events != 3 {
		t.Fatalf("events = %d, want 3", res.Engine.Events)
	}
}

// TestPoolContextCancellation covers both cancellation points: a document
// cancelled while queued resolves its future with the context error, and a
// Submit blocked on a full queue honours its context.
func TestPoolContextCancellation(t *testing.T) {
	eng := testEngine(t)
	pool, err := NewPool(eng, WithShards(1), WithQueueDepth(1))
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	f, err := pool.SubmitEvents(cancelled, "pre-cancelled", nil)
	if err != nil {
		// The queue had room, so the send raced the cancellation; either
		// outcome is allowed, but an accepted job must fail at the worker.
		if !errors.Is(err, context.Canceled) {
			t.Fatal(err)
		}
	} else if res, _ := f.Wait(context.Background()); !errors.Is(res.Err, context.Canceled) {
		t.Fatalf("queued-then-cancelled document: got %+v, want context.Canceled", res)
	}

	// Fill the single shard's queue with slow documents, then watch a
	// blocked Submit give up when its context is cancelled.
	block := make(chan struct{})
	for i := 0; i < 2; i++ { // one being served + one queued = queue full
		if _, err := pool.Submit(context.Background(), fmt.Sprintf("slow-%d", i), "", &blockingReader{release: block}); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel2 := context.WithCancel(context.Background())
	go cancel2()
	if _, err := pool.Submit(ctx, "blocked", "", &blockingReader{release: block}); err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("blocked submit: %v", err)
	}
	close(block)
}

// blockingReader blocks its first Read until released, then reports an empty
// document: a body whose bytes have not arrived yet.
type blockingReader struct {
	release <-chan struct{}
}

func (b *blockingReader) Read([]byte) (int, error) {
	<-b.release
	return 0, io.EOF
}

// TestPoolCloseDrains submits a batch, closes, and checks that every queued
// document was served, later submissions fail, and Close is idempotent.
func TestPoolCloseDrains(t *testing.T) {
	eng := testEngine(t)
	pool, err := NewPool(eng, WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	const docs = 200
	for i := 0; i < docs; i++ {
		if _, err := pool.SubmitEvents(context.Background(), fmt.Sprintf("d%d", i), randomEvents(rand.New(rand.NewSource(int64(i))), 50)); err != nil {
			t.Fatal(err)
		}
	}
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	if st := pool.Stats(); st.Served != docs {
		t.Fatalf("served %d, want %d", st.Served, docs)
	}
	if _, err := pool.SubmitEvents(context.Background(), "late", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: %v, want ErrClosed", err)
	}
	if err := pool.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

// TestPoolHashAffinitySticksToShard checks that one document ID always
// lands on one shard.
func TestPoolHashAffinitySticksToShard(t *testing.T) {
	pool, err := NewPool(testEngine(t), WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	ctx := context.Background()
	shards := map[int]bool{}
	for i := 0; i < 64; i++ {
		f, err := pool.SubmitEvents(ctx, "same-id", nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := f.Wait(ctx)
		if err != nil {
			t.Fatal(err)
		}
		shards[res.Shard] = true
		f.Release()
	}
	if len(shards) != 1 {
		t.Errorf("one ID hit %d shards, want 1", len(shards))
	}
}

// spreadIDs returns n distinct document IDs prefix0, prefix1, ... of which
// the k-th is routed to shard k mod p.Shards(), by the FNV routing that
// TestRouteMatchesFNV pins.
func spreadIDs(p *Pool, prefix string, n int) []string {
	ids := make([]string, n)
	for k, j := 0, 0; k < n; j++ {
		if id := fmt.Sprint(prefix, j); p.set.route(id) == k%p.Shards() {
			ids[k] = id
			k++
		}
	}
	return ids
}

// TestRouteMatchesFNV pins hash routing to the hash/fnv New64a sum it
// computes inline: every ID lands on the shard the sum picks, for several
// shard counts, so no ID changes shard.
func TestRouteMatchesFNV(t *testing.T) {
	eng := testEngine(t)
	ids := []string{"", "a", "doc-1", "doc-17", "same-id", "héllo wörld", "\x00\xff", strings.Repeat("long-", 40)}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		b := make([]byte, rng.Intn(24))
		rng.Read(b)
		ids = append(ids, string(b))
	}
	for _, shards := range []int{2, 3, 4, 7, 16} {
		pool, err := NewPool(eng, WithShards(shards))
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range ids {
			h := fnv.New64a()
			io.WriteString(h, id)
			if got, want := pool.set.route(id), int(h.Sum64()%uint64(shards)); got != want {
				t.Errorf("%d shards: route(%q) = %d, FNV-1a picks %d", shards, id, got, want)
			}
		}
		pool.Close()
	}
}

// TestPoolConcurrentSubmitters hammers one pool from many goroutines under
// the race detector.
func TestPoolConcurrentSubmitters(t *testing.T) {
	eng := testEngine(t)
	pool, err := NewPool(eng, WithShards(4), WithQueueDepth(2))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	const submitters, perSubmitter = 8, 50
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < perSubmitter; i++ {
				f, err := pool.SubmitEvents(context.Background(), fmt.Sprintf("g%d-%d", g, i), randomEvents(rng, 30))
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := f.Wait(context.Background()); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if st := pool.Stats(); st.Served != submitters*perSubmitter {
		t.Errorf("served %d, want %d", st.Served, submitters*perSubmitter)
	}
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestNewPoolRejectsEmptyEngine checks the constructor's error paths.
func TestNewPoolRejectsEmptyEngine(t *testing.T) {
	if _, err := NewPool(nil); err == nil {
		t.Error("nil engine: want error")
	}
	if _, err := NewPool(engine.New()); err == nil {
		t.Error("empty engine: want error")
	}
}

// TestSubmitFormats checks the format argument: each adapter format is
// decoded on the shard with the same verdicts as a serial pass, and an
// unknown format fails at submission, before anything is queued.
func TestSubmitFormats(t *testing.T) {
	eng := testEngine(t)
	pool, err := NewPool(eng, WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	docs := map[string]string{
		"":      "<a> <b> c </b> </a>",
		"xml":   "<a><b>c</b></a>",
		"json":  `{"a": ["b", "c"]}`,
		"trace": "enter a\nenter b\nc\nexit\nexit\n",
	}
	for format, doc := range docs {
		src, err := adapter.New(format, strings.NewReader(doc), eng.Alphabet())
		if err != nil {
			t.Fatal(err)
		}
		want, err := eng.Run(src)
		if err != nil {
			t.Fatal(err)
		}
		f, err := pool.Submit(context.Background(), "doc-"+format, format, strings.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		res, err := f.Wait(context.Background())
		if err != nil {
			t.Fatalf("%q: %v", format, err)
		}
		if res.Engine.Events != want.Events || fmt.Sprint(res.Engine.Verdicts) != fmt.Sprint(want.Verdicts) {
			t.Errorf("%q: pool %d events %v, serial %d events %v", format, res.Engine.Events, res.Engine.Verdicts, want.Events, want.Verdicts)
		}
	}
	if _, err := pool.TrySubmit(context.Background(), "yaml", "yaml", strings.NewReader("a: b")); err == nil {
		t.Fatal("TrySubmit with an unknown format: want an error")
	}
	if st := pool.Stats(); st.Served != int64(len(docs)) || st.Rejected != 0 {
		t.Fatalf("unknown format reached the pool: %+v", st)
	}
}

// decodersFor is a fresh decoder cache interning against eng's alphabet.
func decodersFor(eng *engine.Engine) *decoders {
	return &decoders{alpha: eng.Alphabet(), byFormat: make(map[string]adapter.Source)}
}

// TestShardDecodersReuse pins the per-shard decoder contract: after a
// format's first document, opening and draining another in-alphabet
// document allocates nothing for decoder state.
func TestShardDecodersReuse(t *testing.T) {
	decs := decodersFor(testEngine(t))
	docs := map[string]string{
		"":      "<a> <b> c </b> </a>",
		"xml":   "<a><b>c</b></a>",
		"json":  `["a", ["b", "c"]]`,
		"trace": "enter a\nb c\nexit\n",
	}
	for format, doc := range docs {
		rd := strings.NewReader(doc)
		var decodeErr error
		run := func() {
			rd.Reset(doc)
			src, err := decs.open(format, rd)
			if err != nil {
				decodeErr = err
				return
			}
			for {
				if _, err := src.Next(); err != nil {
					if err != io.EOF {
						decodeErr = err
					}
					return
				}
			}
		}
		run()
		if allocs := testing.AllocsPerRun(20, run); allocs != 0 || decodeErr != nil {
			t.Errorf("format %q: %v allocs per reused decode (error %v), want 0", format, allocs, decodeErr)
		}
	}
}
