package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/alphabet"
	"repro/internal/docstream"
	"repro/internal/engine"
	"repro/internal/generator"
	"repro/internal/nwa"
	"repro/internal/query"
)

// swapEngine registers the DNWAs under their names on a fresh engine.
func swapEngine(t *testing.T, names []string, queries []*nwa.DNWA) *engine.Engine {
	t.Helper()
	eng := engine.New()
	for i, q := range queries {
		if _, err := eng.RegisterQuery(names[i], query.Compile(q)); err != nil {
			t.Fatal(err)
		}
	}
	return eng
}

// TestSwapServesEachViewsEngine interleaves documents across three views of
// two shards: the first engine, a narrower engine over the same alphabet,
// and an engine over the alphabet {d, c, b, a}, whose extra label "d" the
// first two fold onto the out-of-alphabet column and whose order gives
// every label another symbol ID.  Every document must get the verdicts of
// the engine it was submitted to — a shard that kept an old view's session
// or decoders would answer with the wrong width or intern labels to the
// wrong IDs — and each view counts its own documents only, from zero.  Closing
// a view refuses further submissions and swaps on it and leaves the
// others serving; closing the last one stops the shards.
func TestSwapServesEachViewsEngine(t *testing.T) {
	abc := alphabet.New("a", "b", "c")
	dcba := alphabet.New("d", "c", "b", "a")
	engines := []*engine.Engine{
		testEngine(t),
		swapEngine(t, []string{"contains a", "//b//c"}, []*nwa.DNWA{
			query.ContainsLabel(abc, "a"),
			query.PathQuery(abc, "b", "c"),
		}),
		swapEngine(t, []string{"contains d", "//a//d", "well-formed"}, []*nwa.DNWA{
			query.ContainsLabel(dcba, "d"),
			query.PathQuery(dcba, "a", "d"),
			query.WellFormed(dcba),
		}),
	}
	first, err := NewPool(engines[0], WithShards(2), WithQueueDepth(8))
	if err != nil {
		t.Fatal(err)
	}
	narrow, err := first.Swap(engines[1])
	if err != nil {
		t.Fatal(err)
	}
	wide, err := narrow.Swap(engines[2])
	if err != nil {
		t.Fatal(err)
	}
	views := []*Pool{first, narrow, wide}

	rng := rand.New(rand.NewSource(31))
	labels := []string{"a", "b", "c", "d"}
	ctx := context.Background()
	type pending struct {
		view int
		doc  string
		fut  *Future
	}
	var futs []pending
	submitted := make([]int64, len(views))
	// The IDs alternate between the two shards, so each shard serves
	// documents of every view, in random order.
	for _, id := range spreadIDs(first, "doc-", 90) {
		doc := docstream.Render(generator.RandomDocument(rng, 5+rng.Intn(40), 6, labels))
		v := rng.Intn(len(views))
		f, err := views[v].Submit(ctx, id, "", strings.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		submitted[v]++
		futs = append(futs, pending{v, doc, f})
	}
	for _, p := range futs {
		res, err := p.fut.Wait(ctx)
		if err != nil {
			t.Fatal(err)
		}
		want, err := engines[p.view].RunReader(strings.NewReader(p.doc))
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(res.Engine.Verdicts) != fmt.Sprint(want.Verdicts) || res.Engine.Events != want.Events {
			t.Fatalf("view %d %s %q: %+v, serial %+v", p.view, res.ID, p.doc, *res.Engine, *want)
		}
		p.fut.Release()
	}
	for v, p := range views {
		if st := p.Stats(); st.Served != submitted[v] || st.Failed != 0 {
			t.Errorf("view %d counted %d served (%d failed), want its own %d", v, st.Served, st.Failed, submitted[v])
		}
	}

	first.Close()
	if _, err := first.Submit(ctx, "late", "", strings.NewReader("a")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit on a closed view: %v, want ErrClosed", err)
	}
	if _, err := first.Swap(testEngine(t)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Swap on a closed view: %v, want ErrClosed", err)
	}
	for _, p := range []*Pool{narrow, wide} {
		f, err := p.Submit(ctx, "after", "", strings.NewReader("<a> d </a>"))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Wait(ctx); err != nil {
			t.Fatal(err)
		}
		f.Release()
		p.Close()
	}
	for i, q := range wide.set.queues {
		select {
		case _, open := <-q:
			if open {
				t.Fatalf("shard %d's queue holds a document after every view closed", i)
			}
		default:
			t.Fatalf("shard %d's queue is still open after every view closed", i)
		}
	}
}

// TestSwapCloseWaitsForItsDocuments holds the one shard on a document of
// the first view while documents of both views queue behind it.  Closing
// the first view returns only once its own documents are served, and
// leaves the shards serving the second view, whose counters started at
// zero.
func TestSwapCloseWaitsForItsDocuments(t *testing.T) {
	eng := testEngine(t)
	old, err := NewPool(eng, WithShards(1), WithQueueDepth(8))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	block := make(chan struct{})
	blocker, err := old.Submit(ctx, "blocker", "", &blockingReader{release: block})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(37))
	queued, err := old.SubmitEvents(ctx, "old-queued", randomEvents(rng, 200))
	if err != nil {
		t.Fatal(err)
	}
	for old.Stats().Shards[0].QueueDepth != 1 {
		runtime.Gosched() // until the shard has taken the blocker up
	}
	next, err := old.Swap(eng)
	if err != nil {
		t.Fatal(err)
	}
	defer next.Close()
	if st := next.Stats(); st.Served != 0 || st.Shards[0].QueueDepth != 1 {
		t.Fatalf("fresh view: %d served, queue depth %d; want 0 and the old view's 1 queued document", st.Served, st.Shards[0].QueueDepth)
	}
	events := randomEvents(rng, 200)
	behind, err := next.SubmitEvents(ctx, "new-queued", events)
	if err != nil {
		t.Fatal(err)
	}

	closed := make(chan struct{})
	go func() {
		old.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while the view's documents were still queued")
	case <-queued.done:
		t.Fatal("a queued document resolved while its shard was held")
	default:
	}
	close(block)
	<-closed
	for _, f := range []*Future{blocker, queued} {
		select {
		case <-f.done:
		default:
			t.Fatal("the closed view's Close returned before its document resolved")
		}
		f.Release()
	}
	res, err := behind.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.Run(engine.Events(events))
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(res.Engine.Verdicts) != fmt.Sprint(want.Verdicts) {
		t.Fatalf("after the old view closed: %v, serial %v", res.Engine.Verdicts, want.Verdicts)
	}
	behind.Release()
	if st, ost := next.Stats(), old.Stats(); st.Served != 1 || ost.Served != 2 {
		t.Fatalf("served %d on the new view and %d on the old, want 1 and 2", st.Served, ost.Served)
	}
	f, err := next.SubmitEvents(ctx, "later", []docstream.Event{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	f.Release()
}
