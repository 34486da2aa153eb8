package serve

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/engine"
)

// TestFutureRecycling pins the future lifecycle on one shard, whose FIFO
// queue makes every step deterministic: futures released while their
// documents wait behind a stalled document are not handed out again while
// the shard still holds them, they are reused once it has served them, and
// a reused future resolves to its own document's verdicts.  Wait may be
// called more than once.
func TestFutureRecycling(t *testing.T) {
	eng := testEngine(t)
	p, err := NewPool(eng, WithShards(1), WithQueueDepth(8))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(61))

	block := make(chan struct{})
	blocker, err := p.Submit(ctx, "blocker", "", &blockingReader{release: block})
	if err != nil {
		t.Fatal(err)
	}
	abandoned := map[*Future]bool{}
	for i := 0; i < 4; i++ {
		f, err := p.SubmitEvents(ctx, fmt.Sprint("abandoned-", i), randomEvents(rng, 50))
		if err != nil {
			t.Fatal(err)
		}
		abandoned[f] = true
		f.Release() // the owner stops waiting; the shard still holds f
	}
	if len(abandoned) != 4 {
		t.Fatalf("4 queued documents share %d futures", len(abandoned))
	}
	var held []*Future
	for i := 0; i < 3; i++ {
		f, err := p.SubmitEvents(ctx, fmt.Sprint("held-", i), randomEvents(rng, 50))
		if err != nil {
			t.Fatal(err)
		}
		if abandoned[f] {
			t.Fatalf("document %d got a future its shard still holds", i)
		}
		held = append(held, f)
	}
	close(block)
	if _, err := blocker.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	blocker.Release()
	// The queue is FIFO, so once the held documents resolve the shard has
	// served every abandoned one and recycled its future.
	for _, f := range held {
		first, err := f.Wait(ctx)
		if err != nil {
			t.Fatal(err)
		}
		again, err := f.Wait(ctx)
		if err != nil || again.ID != first.ID || again.Engine != first.Engine {
			t.Fatalf("second Wait: %+v, %v; first %+v", again, err, first)
		}
		f.Release()
	}

	reused := 0
	for i := 0; i < 20; i++ {
		events := randomEvents(rng, 20+rng.Intn(200))
		want, err := eng.Run(engine.Events(events))
		if err != nil {
			t.Fatal(err)
		}
		f, err := p.SubmitEvents(ctx, fmt.Sprint("doc-", i), events)
		if err != nil {
			t.Fatal(err)
		}
		if abandoned[f] {
			reused++
		}
		res, err := f.Wait(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if res.ID != fmt.Sprint("doc-", i) || res.Engine.Events != want.Events || res.Engine.MaxDepth != want.MaxDepth ||
			fmt.Sprint(res.Engine.Verdicts) != fmt.Sprint(want.Verdicts) {
			t.Fatalf("doc %d on a recycled future: %+v %+v, serial %+v", i, res, *res.Engine, *want)
		}
		f.Release()
	}
	if reused == 0 {
		t.Error("no abandoned future was reused once its shard had served it")
	}
}
