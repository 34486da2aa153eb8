package engine_test

import (
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/alphabet"
	"repro/internal/docstream"
	"repro/internal/engine"
	"repro/internal/generator"
	"repro/internal/nwa"
	"repro/internal/query"
)

// testQueries builds a small mixed query set over {a, b, c}.
func testQueries(alpha *alphabet.Alphabet) (names []string, queries []*nwa.DNWA) {
	names = []string{"well-formed", "//a//b", "order a,c", "contains b"}
	queries = []*nwa.DNWA{
		query.WellFormed(alpha),
		query.PathQuery(alpha, "a", "b"),
		query.LinearOrder(alpha, "a", "c"),
		query.ContainsLabel(alpha, "b"),
	}
	return names, queries
}

// TestDifferentialAgainstAccepts checks the ISSUE's differential criterion:
// on ≥ 1000 random nested words — including words with pending calls and
// returns — the engine's verdicts and a StreamingRunner's verdicts are
// identical to DNWA.Accepts for every query.
func TestDifferentialAgainstAccepts(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	alpha := alphabet.New("a", "b", "c")
	names, queries := testQueries(alpha)
	eng := engine.New()
	for i, q := range queries {
		eng.Register(names[i], q)
	}
	labels := []string{"a", "b", "c"}
	const trials = 1200
	pending := 0
	for trial := 0; trial < trials; trial++ {
		var n = generator.RandomNestedWord(rng, rng.Intn(60), labels)
		if trial%3 == 0 {
			// Well-matched documents as well, so both shapes are covered.
			n = generator.RandomDocument(rng, 2+rng.Intn(60), 6, labels)
		}
		if !n.IsWellMatched() {
			pending++
		}
		res, err := eng.Run(engine.Word(n))
		if err != nil {
			t.Fatalf("trial %d: engine.Run: %v", trial, err)
		}
		if res.Events != n.Len() {
			t.Fatalf("trial %d: consumed %d events, want %d", trial, res.Events, n.Len())
		}
		for i, q := range queries {
			want := q.Accepts(n)
			if res.Verdicts[i] != want {
				t.Fatalf("trial %d: engine verdict for %s = %v, Accepts = %v on %v",
					trial, names[i], res.Verdicts[i], want, n)
			}
			r := docstream.NewStreamingRunner(q)
			for j := 0; j < n.Len(); j++ {
				r.Feed(docstream.Event{Kind: n.KindAt(j), Label: n.SymbolAt(j)})
			}
			if r.Accepting() != want {
				t.Fatalf("trial %d: StreamingRunner verdict for %s = %v, Accepts = %v on %v",
					trial, names[i], r.Accepting(), want, n)
			}
		}
	}
	if pending == 0 {
		t.Fatalf("no words with pending calls/returns were generated")
	}
}

// TestMillionEventSinglePass is the acceptance run: ≥ 4 simultaneous queries
// over a ≥ 1M-event generated document, streamed in one pass.  The document
// is produced incrementally, so nothing proportional to its length is ever
// held in memory; the pooled second pass allocates (next to) nothing.
func TestMillionEventSinglePass(t *testing.T) {
	if testing.Short() {
		t.Skip("streams a million events")
	}
	alpha := alphabet.New("a", "b", "c")
	names, queries := testQueries(alpha)
	eng := engine.New()
	for i, q := range queries {
		eng.Register(names[i], q)
	}
	labels := []string{"a", "b", "c"}
	const size = 1_000_000
	res, err := eng.Run(generator.NewDocumentStream(99, size, 40, labels))
	if err != nil {
		t.Fatal(err)
	}
	if res.Events < size {
		t.Fatalf("streamed %d events, want ≥ %d", res.Events, size)
	}
	if res.MaxDepth > 40 {
		t.Fatalf("depth %d exceeds the generator bound", res.MaxDepth)
	}
	// The pooled re-run must not allocate per event: everything it needs —
	// runners, stacks, batch buffer — is reused from the first pass.
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := eng.Run(generator.NewDocumentStream(99, size, 40, labels)); err != nil {
			t.Fatal(err)
		}
	})
	// The generator itself allocates its RNG and stack; allow a small
	// constant budget, far below one allocation per event.
	if allocs > 100 {
		t.Fatalf("pooled pass allocates %v objects; the event stream is being buffered somewhere", allocs)
	}
	// Cross-check the verdicts against the serial runners on the same seed.
	for i, q := range queries {
		r := docstream.NewStreamingRunner(q)
		src := generator.NewDocumentStream(99, size, 40, labels)
		for {
			e, err := src.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			r.Feed(e)
		}
		if r.Accepting() != res.Verdicts[i] {
			t.Fatalf("query %s: engine %v, serial %v", names[i], res.Verdicts[i], r.Accepting())
		}
	}
}

// TestRunReader drives the full pipeline: raw bytes → incremental tokenizer
// → engine, with no intermediate event slice.
func TestRunReader(t *testing.T) {
	doc := `<catalog> <book> <title> nested words </title> </book> <misc> stray </misc> </catalog>`
	alpha := alphabet.New("catalog", "book", "title", "misc", "nested", "words", "stray")
	eng := engine.New()
	eng.Register("well-formed", query.WellFormed(alpha))
	eng.Register("//book//title", query.PathQuery(alpha, "book", "title"))
	eng.Register("//misc//title", query.PathQuery(alpha, "misc", "title"))
	res, err := eng.RunReader(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verdicts[0] || !res.Verdicts[1] || res.Verdicts[2] {
		t.Fatalf("verdicts = %v, want [true true false]", res.Verdicts)
	}
	if res.MaxDepth != 3 {
		t.Fatalf("max depth = %d, want 3", res.MaxDepth)
	}
}

// TestRegisterErrors checks the registration invariants: duplicate names and
// alphabet mismatches are rejected, and a rejected registration leaves the
// engine unchanged.
func TestRegisterErrors(t *testing.T) {
	alpha := alphabet.New("a", "b")
	other := alphabet.New("a", "b", "c")
	eng := engine.New()
	if _, err := eng.Register("well-formed", query.WellFormed(alpha)); err != nil {
		t.Fatalf("first registration failed: %v", err)
	}
	if _, err := eng.Register("well-formed", query.ContainsLabel(alpha, "a")); err == nil {
		t.Fatal("duplicate query name was accepted")
	}
	if _, err := eng.Register("other-alphabet", query.WellFormed(other)); err == nil {
		t.Fatal("query over a different alphabet was accepted")
	}
	if _, err := eng.RegisterQuery("nnwa-other-alphabet",
		query.CompileN(query.WellFormed(other).ToNondeterministic())); err == nil {
		t.Fatal("NNWA query over a different alphabet was accepted")
	}
	if eng.Len() != 1 {
		t.Fatalf("failed registrations changed the engine: Len = %d, want 1", eng.Len())
	}
	if !eng.Alphabet().Equal(alpha) {
		t.Fatalf("engine alphabet = %v, want %v", eng.Alphabet(), alpha)
	}
}

// randomNNWA builds a small random nondeterministic NWA over alpha.
func randomNNWA(rng *rand.Rand, alpha *alphabet.Alphabet, states int) *nwa.NNWA {
	a := nwa.NewNNWA(alpha, states)
	a.AddStart(rng.Intn(states))
	a.AddAccept(rng.Intn(states))
	syms := alpha.Symbols()
	edges := 4 + rng.Intn(6*states)
	for i := 0; i < edges; i++ {
		sym := syms[rng.Intn(len(syms))]
		switch rng.Intn(3) {
		case 0:
			a.AddInternal(rng.Intn(states), sym, rng.Intn(states))
		case 1:
			a.AddCall(rng.Intn(states), sym, rng.Intn(states), rng.Intn(states))
		default:
			a.AddReturn(rng.Intn(states), rng.Intn(states), sym, rng.Intn(states))
		}
	}
	return a
}

// TestNNWAQueriesInEngine is the ISSUE's NNWA-in-engine differential: each
// nondeterministic query is registered twice — as a compiled NNWA state-set
// runner and as its determinization compiled to a DNWA runner — and ≥1000
// random nested words (including words with pending calls and returns) must
// get identical verdicts from both, in the same fan-out pass.
func TestNNWAQueriesInEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	alpha := alphabet.New("a", "b")
	eng := engine.New()
	const automata = 4
	var nnwaIdx, detIdx [automata]int
	for i := 0; i < automata; i++ {
		a := randomNNWA(rng, alpha, 2+rng.Intn(3))
		nnwaIdx[i] = eng.MustRegisterQuery(fmt.Sprintf("nnwa-%d", i), query.CompileN(a))
		detIdx[i] = eng.MustRegister(fmt.Sprintf("det-%d", i), a.Determinize())
	}
	labels := []string{"a", "b"}
	const trials = 1100
	pending := 0
	for trial := 0; trial < trials; trial++ {
		n := generator.RandomNestedWord(rng, rng.Intn(40), labels)
		if trial%3 == 0 {
			n = generator.RandomDocument(rng, 2+rng.Intn(40), 5, labels)
		}
		if !n.IsWellMatched() {
			pending++
		}
		res, err := eng.Run(engine.Word(n))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i := 0; i < automata; i++ {
			if nv, dv := res.Verdicts[nnwaIdx[i]], res.Verdicts[detIdx[i]]; nv != dv {
				t.Fatalf("trial %d, automaton %d: NNWA runner %v, Determinize+DNWA %v on %v",
					trial, i, nv, dv, n)
			}
		}
	}
	if pending == 0 {
		t.Fatal("no words with pending calls/returns were generated")
	}
}

// TestCompiledSessionAllocationFree is the ISSUE's bounded-allocation check:
// once warm, a compiled-DNWA session processes events without allocating —
// the only allocations in a pass are the constant-size Result snapshot.
func TestCompiledSessionAllocationFree(t *testing.T) {
	alpha := alphabet.New("a", "b", "c")
	names, queries := testQueries(alpha)
	eng := engine.New()
	for i, q := range queries {
		eng.MustRegister(names[i], q)
	}
	// Pre-interned in-memory events, as an edge tokenizer would hand over.
	const size = 20000
	src := generator.NewDocumentStream(5, size, 16, []string{"a", "b", "c"})
	var events []docstream.Event
	for {
		e, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		events = append(events, e.Interned(alpha))
	}
	s := eng.Acquire()
	defer eng.Release(s)
	feed := func() {
		for _, e := range events {
			s.Feed(e)
		}
		if s.Result() == nil {
			t.Fatal("nil result")
		}
	}
	feed() // warm-up: grows the runner stacks and the batch buffer
	allocs := testing.AllocsPerRun(5, feed)
	// Result() allocates its snapshot (a Result and a Verdicts slice); the
	// per-event path must contribute nothing on top of that.
	if allocs > 4 {
		t.Fatalf("warm compiled session allocates %v objects per %d-event pass, want ≤ 4", allocs, len(events))
	}
}

// TestSessionFeed exercises the manual session API: events fed one at a
// time, uninterned, with Result flushing the buffered tail.
func TestSessionFeed(t *testing.T) {
	alpha := alphabet.New("a", "b", "c")
	names, queries := testQueries(alpha)
	eng := engine.New()
	for i, q := range queries {
		eng.Register(names[i], q)
	}
	n := generator.RandomDocument(rand.New(rand.NewSource(3)), 120, 6, []string{"a", "b", "c"})
	s := eng.Acquire()
	defer eng.Release(s)
	for i := 0; i < n.Len(); i++ {
		s.Feed(docstream.Event{Kind: n.KindAt(i), Label: n.SymbolAt(i)})
	}
	res := s.Result()
	for i, q := range queries {
		if res.Verdicts[i] != q.Accepts(n) {
			t.Fatalf("session verdict for %s diverges from Accepts", names[i])
		}
	}
}
