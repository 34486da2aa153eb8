package engine

import (
	"testing"

	"repro/internal/alphabet"
	"repro/internal/docstream"
	"repro/internal/nestedword"
	"repro/internal/query"
)

// TestSessionStepLoopZeroAlloc pins the claim the //nwvet:hotpath annotation
// on Session.Run makes: once a session's runners and batch buffer have
// grown to the working depth, streaming a document of pre-interned events
// through compiled DNWA runners into a reused Result allocates nothing.
func TestSessionStepLoopZeroAlloc(t *testing.T) {
	alpha := alphabet.New("a", "b")
	e := New()
	if _, err := e.RegisterQuery("wf", query.Compile(query.WellFormed(alpha))); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RegisterQuery("path", query.Compile(query.PathQuery(alpha, "a", "b"))); err != nil {
		t.Fatal(err)
	}

	// A nested document, interned against the engine's alphabet up front —
	// the state a serve shard is in after its interning tokenizer.
	var events []docstream.Event
	intern := func(kind nestedword.Kind, label string) docstream.Event {
		return docstream.Event{Kind: kind, Label: label}.Interned(alpha)
	}
	for i := 0; i < 32; i++ {
		events = append(events, intern(nestedword.Call, "a"))
		events = append(events, intern(nestedword.Internal, "b"))
		events = append(events, intern(nestedword.Call, "b"))
		events = append(events, intern(nestedword.Internal, "a"))
	}
	for i := 0; i < 32; i++ {
		events = append(events, intern(nestedword.Return, "b"))
		events = append(events, intern(nestedword.Return, "a"))
	}

	s := e.Acquire()
	defer e.Release(s)
	src := &sliceSource{events: events}
	var res Result
	run := func() {
		s.Reset()
		src.pos = 0
		if err := s.Run(src, &res); err != nil {
			t.Fatal(err)
		}
	}
	run() // grow runner stacks and the batch buffer to the working depth
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Errorf("compiled-DNWA session step loop: %v allocs/op, want 0", allocs)
	}
}
