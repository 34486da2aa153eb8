package engine_test

import (
	"io"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/alphabet"
	"repro/internal/docstream"
	"repro/internal/engine"
	"repro/internal/generator"
	"repro/internal/nestedword"
	"repro/internal/query"
	"repro/internal/query/plan"
)

// TestBatchBoundaries pins the flush logic at the production batch size:
// documents one event short of a batch, exactly one batch, one event over,
// and several batches plus a tail must get the same verdicts from Run and
// from each query's own runner (query.RunWord) — for a
// bundle of solo runners and for its planned form with product runners.
// Each document is fed three ways: as uninterned events, as events the
// interning tokenizer pre-interned, and as a mix of the two within every
// batch, the out-of-alphabet zz included both ways.
//
// The session packs each event's symbol ID above two kind bits of a 32-bit
// word.  Every in-range ID fits there: the decoder caps a compiled query's
// symbol columns at maxSymbols = 2^20, far below the 2^30 IDs the word
// holds.
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
			inputs := batchInputs(t, n, src.Alphabet())
			for kind, eng := range engines {
				for input, events := range inputs {
					var run *engine.Result
					if input == "uninterned" {
						run, err = eng.Run(engine.Word(n))
					} else {
						run, err = eng.Run(engine.Events(events))
					}
					if err != nil {
						t.Fatalf("%s, %d-event %s, %s: Run: %v", kind, size, shape, input, err)
					}
					if run.Events != size || run.MaxDepth != depth {
						t.Fatalf("%s, %d-event %s, %s: Run %d events depth %d, want depth %d",
							kind, size, shape, input, run.Events, run.MaxDepth, depth)
					}
					for i, name := range eng.Names() {
						if run.Verdicts[i] != want[i] {
							t.Fatalf("%s, %d-event %s, %s, query %q: Run %v, RunWord %v",
								kind, size, shape, input, name, run.Verdicts[i], want[i])
						}
					}
				}
			}
		}
	}
}

// batchInputs spells n as event streams for TestBatchBoundaries:
// "uninterned" events carry their labels only, "interned" ones come from
// the interning tokenizer over the rendered word, and "mixed" takes every
// other event from each.  When n holds the out-of-alphabet zz, the first
// batch of the mixed stream must hold it both pre-interned and uninterned.
func batchInputs(t *testing.T, n *nestedword.NestedWord, alpha *alphabet.Alphabet) map[string][]docstream.Event {
	t.Helper()
	uninterned := make([]docstream.Event, n.Len())
	for i := range uninterned {
		uninterned[i] = docstream.Event{Kind: n.KindAt(i), Label: n.SymbolAt(i)}
	}
	tk := docstream.NewInterningTokenizer(strings.NewReader(docstream.Render(n)), alpha)
	var interned []docstream.Event
	for {
		e, err := tk.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if e.Sym == 0 {
			t.Fatalf("interning tokenizer left event %d uninterned", len(interned))
		}
		interned = append(interned, e)
	}
	if len(interned) != n.Len() {
		t.Fatalf("tokenizer read %d events from a %d-event word", len(interned), n.Len())
	}
	mixed := make([]docstream.Event, n.Len())
	var oov [2]int // out-of-alphabet events, uninterned and pre-interned
	for i := range mixed {
		mixed[i] = uninterned[i]
		if i%2 == 1 {
			mixed[i] = interned[i]
		}
		if _, ok := alpha.Index(uninterned[i].Label); !ok && i < engine.BatchSize {
			oov[i%2]++
		}
	}
	if slices.Contains(n.Alphabet(), "zz") && (oov[0] == 0 || oov[1] == 0) {
		t.Fatalf("first batch holds %d uninterned and %d pre-interned out-of-alphabet events, want both",
			oov[0], oov[1])
	}
	return map[string][]docstream.Event{"uninterned": uninterned, "interned": interned, "mixed": mixed}
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
