package engine_test

import (
	"fmt"
	"io"
	"testing"

	"repro/internal/alphabet"
	"repro/internal/docstream"
	"repro/internal/engine"
	"repro/internal/generator"
	"repro/internal/nwa"
	"repro/internal/query"
)

// TestAdoptAllocs pins what moving a session between engines costs.  A
// session moved back and forth between two engines with as many groups as
// it has runners keeps its runners, their stacks and its batch buffer, so
// the moves and a deep document on each engine allocate nothing beyond the
// two event sources; a move to an engine with two more groups builds just
// those two runners.  After every move the session's verdicts equal the
// target engine's own.
func TestAdoptAllocs(t *testing.T) {
	alpha := alphabet.New("a", "b", "c")
	names, queries := testQueries(alpha)
	first := engine.New()
	register(t, first, names, queries)
	second := engine.New()
	register(t, second, []string{"contains a", "contains c", "//b//c", "order c,a"}, []*nwa.DNWA{
		query.ContainsLabel(alpha, "a"),
		query.ContainsLabel(alpha, "c"),
		query.PathQuery(alpha, "b", "c"),
		query.LinearOrder(alpha, "c", "a"),
	})
	wider := engine.New()
	register(t, wider, append(names, "contains c", "//c//a"), append(queries,
		query.ContainsLabel(alpha, "c"),
		query.PathQuery(alpha, "c", "a"),
	))

	src := generator.NewDocumentStream(9, 5000, 24, []string{"a", "b", "c"})
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

	s := first.Acquire()
	var res engine.Result
	run := func(eng *engine.Engine) {
		eng.Adopt(s)
		if err := s.Run(engine.Events(events), &res); err != nil {
			t.Fatal(err)
		}
	}
	check := func(eng *engine.Engine) {
		t.Helper()
		run(eng)
		want, err := eng.Run(engine.Events(events))
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(res) != fmt.Sprint(*want) {
			t.Fatalf("after a move: %+v, the engine's own session %+v", res, *want)
		}
	}
	for _, eng := range []*engine.Engine{second, first, wider, second, wider, first} {
		check(eng)
	}

	if allocs := testing.AllocsPerRun(10, func() { run(second); run(first) }); allocs > 2 {
		t.Errorf("two moves between equal-width engines and a pass on each made %v allocs, want at most the 2 event sources", allocs)
	}
	if allocs := testing.AllocsPerRun(10, func() { first.Adopt(s); wider.Adopt(s) }); allocs != 2 {
		t.Errorf("a move to an engine with 2 more groups made %v allocs, want its 2 runners", allocs)
	}
	wider.Release(s) // the last move left the session with wider
}
