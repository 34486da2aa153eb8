package engine_test

import (
	"math/rand"
	"testing"

	"repro/internal/docstream"
	"repro/internal/engine"
	"repro/internal/generator"
	"repro/internal/nestedword"
	"repro/internal/query"
	"repro/internal/query/plan"
)

// TestBatchBoundaries pins the flush logic at the production batch size:
// documents one event short of a batch, exactly one batch, one event over,
// and several batches plus a tail must get the same verdicts from Run, from
// Feed+Result, and from each query's own runner (query.RunWord) — for a
// bundle of solo runners and for its planned form with product runners.
func TestBatchBoundaries(t *testing.T) {
	src := plannedTestBundle(t)
	planned, dec, err := plan.Bundle(src, plan.Options{ClusterSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Groups) == 0 {
		t.Fatal("planner produced no product groups; the product path is untested")
	}
	engines := map[string]*engine.Engine{"solo": engine.New(), "planned": engine.New()}
	if _, err := engines["solo"].RegisterBundle(src); err != nil {
		t.Fatal(err)
	}
	if _, err := engines["planned"].RegisterBundle(planned); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(1024))
	labels := []string{"a", "b", "c", "zz"} // zz is out of the alphabet
	for _, size := range []int{engine.BatchSize - 1, engine.BatchSize, engine.BatchSize + 1, 3*engine.BatchSize + 7} {
		words := map[string]*nestedword.NestedWord{
			"random":   generator.RandomNestedWord(rng, size, labels),
			"document": generator.RandomDocument(rng, size, 8, labels[:3]),
		}
		for shape, n := range words {
			if n.Len() != size {
				t.Fatalf("%s word of %d events, want %d", shape, n.Len(), size)
			}
			want := make([]bool, src.Len())
			for i := range want {
				want[i] = query.RunWord(src.Query(i).NewRunner(), src.Alphabet(), n)
			}
			depth := maxOpen(n)
			for kind, eng := range engines {
				run, err := eng.Run(engine.Word(n))
				if err != nil {
					t.Fatalf("%s, %d-event %s: Run: %v", kind, size, shape, err)
				}
				s := eng.Acquire()
				for i := 0; i < n.Len(); i++ {
					s.Feed(docstream.Event{Kind: n.KindAt(i), Label: n.SymbolAt(i)})
				}
				fed := s.Result()
				eng.Release(s)
				if run.Events != size || fed.Events != size || run.MaxDepth != depth || fed.MaxDepth != depth {
					t.Fatalf("%s, %d-event %s: Run %d events depth %d, Feed %d events depth %d, want depth %d",
						kind, size, shape, run.Events, run.MaxDepth, fed.Events, fed.MaxDepth, depth)
				}
				for i, name := range eng.Names() {
					if run.Verdicts[i] != want[i] || fed.Verdicts[i] != want[i] {
						t.Fatalf("%s, %d-event %s, query %q: Run %v, Feed %v, RunWord %v",
							kind, size, shape, name, run.Verdicts[i], fed.Verdicts[i], want[i])
					}
				}
			}
		}
	}
}

// maxOpen is the most elements simultaneously open in n, pending returns
// closing nothing — the engine's Result.MaxDepth.
func maxOpen(n *nestedword.NestedWord) int {
	open, max := 0, 0
	for i := 0; i < n.Len(); i++ {
		switch n.KindAt(i) {
		case nestedword.Call:
			if open++; open > max {
				max = open
			}
		case nestedword.Return:
			if open > 0 {
				open--
			}
		}
	}
	return max
}
