package engine_test

import (
	"errors"
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

// register compiles and registers each DNWA under its name, failing the
// test on a registration error.
func register(tb testing.TB, eng *engine.Engine, names []string, queries []*nwa.DNWA) {
	tb.Helper()
	for i, q := range queries {
		if _, err := eng.RegisterQuery(names[i], query.Compile(q)); err != nil {
			tb.Fatal(err)
		}
	}
}

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
	register(t, eng, names, queries)
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
	register(t, eng, names, queries)
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
	register(t, eng, []string{"well-formed", "//book//title", "//misc//title"}, []*nwa.DNWA{
		query.WellFormed(alpha),
		query.PathQuery(alpha, "book", "title"),
		query.PathQuery(alpha, "misc", "title"),
	})
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

// TestRegisterErrors checks the registration invariants: duplicate names,
// alphabet mismatches and queries other than *query.Compiled — an NNWA
// runner is refused with query.ErrNNWANotServed — are rejected, and a
// rejected registration leaves the engine unchanged.
func TestRegisterErrors(t *testing.T) {
	alpha := alphabet.New("a", "b")
	other := alphabet.New("a", "b", "c")
	eng := engine.New()
	if _, err := eng.RegisterQuery("well-formed", query.Compile(query.WellFormed(alpha))); err != nil {
		t.Fatalf("first registration failed: %v", err)
	}
	if _, err := eng.RegisterQuery("well-formed", query.Compile(query.ContainsLabel(alpha, "a"))); err == nil {
		t.Fatal("duplicate query name was accepted")
	}
	if _, err := eng.RegisterQuery("other-alphabet", query.Compile(query.WellFormed(other))); err == nil {
		t.Fatal("query over a different alphabet was accepted")
	}
	if _, err := eng.RegisterQuery("nnwa-other-alphabet",
		query.CompileN(query.WellFormed(other).ToNondeterministic())); err == nil {
		t.Fatal("NNWA query over a different alphabet was accepted")
	}
	_, err := eng.RegisterQuery("nnwa", query.CompileN(query.ContainsLabel(alpha, "a").ToNondeterministic()))
	if !errors.Is(err, query.ErrNNWANotServed) {
		t.Fatalf("NNWA query over the engine's alphabet: got %v, want ErrNNWANotServed", err)
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

// TestNNWAQueriesInEngine is the NNWA-in-engine differential: each
// nondeterministic query is served as its determinization compiled to a
// DNWA (the only form the engine serves), and on ≥1000 random nested words
// (including words with pending calls and returns) every engine verdict
// must equal the in-process NNWA state-set runner's and NNWA.Accepts.
func TestNNWAQueriesInEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	alpha := alphabet.New("a", "b")
	eng := engine.New()
	const automata = 4
	var nnwas [automata]*nwa.NNWA
	var runners [automata]query.Runner
	var detIdx [automata]int
	for i := range nnwas {
		a := randomNNWA(rng, alpha, 2+rng.Intn(3))
		nnwas[i], runners[i] = a, query.CompileN(a).NewRunner()
		idx, err := eng.RegisterQuery(fmt.Sprintf("det-%d", i), query.Compile(a.Determinize()))
		if err != nil {
			t.Fatal(err)
		}
		detIdx[i] = idx
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
		for i, a := range nnwas {
			dv := res.Verdicts[detIdx[i]]
			if nv := query.RunWord(runners[i], alpha, n); nv != dv {
				t.Fatalf("trial %d, automaton %d: NNWA runner %v, served Determinize+Compile %v on %v",
					trial, i, nv, dv, n)
			}
			if av := a.Accepts(n); av != dv {
				t.Fatalf("trial %d, automaton %d: NNWA.Accepts %v, served Determinize+Compile %v on %v",
					trial, i, av, dv, n)
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
	register(t, eng, names, queries)
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
	var res engine.Result
	run := func() {
		s.Reset()
		if err := s.Run(engine.Events(events), &res); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm-up: grows the runner stacks and the batch buffer
	allocs := testing.AllocsPerRun(5, run)
	// Events allocates its slice source; the per-event path must contribute
	// nothing on top of that.
	if allocs > 1 {
		t.Fatalf("warm compiled session allocates %v objects per %d-event pass, want ≤ 1", allocs, len(events))
	}
}

// TestSessionRun exercises the session API: uninterned events run through
// an acquired session into a caller-owned Result.
func TestSessionRun(t *testing.T) {
	alpha := alphabet.New("a", "b", "c")
	names, queries := testQueries(alpha)
	eng := engine.New()
	register(t, eng, names, queries)
	n := generator.RandomDocument(rand.New(rand.NewSource(3)), 120, 6, []string{"a", "b", "c"})
	s := eng.Acquire()
	defer eng.Release(s)
	var res engine.Result
	if err := s.Run(engine.Word(n), &res); err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		if res.Verdicts[i] != q.Accepts(n) {
			t.Fatalf("session verdict for %s diverges from Accepts", names[i])
		}
	}
}
