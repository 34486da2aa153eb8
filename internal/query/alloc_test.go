package query

import (
	"fmt"
	"testing"

	"repro/internal/alphabet"
	"repro/internal/nwa"
)

// TestDNWARunnerZeroAlloc pins that a compiled DNWA runner steps with zero
// allocations once its stack has grown.
func TestDNWARunnerZeroAlloc(t *testing.T) {
	c := Compile(WellFormed(alphabet.New("a", "b")))
	r := c.NewRunner()
	run := func() {
		r.Reset()
		for depth := 0; depth < 16; depth++ {
			r.StepCall(0)
			r.StepInternal(1)
		}
		for depth := 0; depth < 16; depth++ {
			r.StepReturn(0)
		}
		_ = r.Accepting()
	}
	run()
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Errorf("compiled DNWA runner: %v allocs/op, want 0", allocs)
	}
}

// keptEntries is the stack capacity a runner holds between documents: its
// stack, and for the state-set runner the larger of the stack and the
// recycled-frame free list.
func keptEntries(t *testing.T, r Runner) int {
	switch r := r.(type) {
	case *dnwaRunner:
		return cap(r.stack)
	case *ProductRunner:
		return cap(r.stack)
	case *nnwaRunner:
		return max(cap(r.stack), cap(r.free))
	}
	t.Fatalf("no stack accounting for %T", r)
	return 0
}

// TestResetBoundsKeptStack pins the memory a runner keeps after a deep
// document: once Reset, every runner kind an engine session holds keeps at
// most maxKeptStack stack entries, and answers the next document as a
// fresh runner does.  The deterministic runners read a document of depth
// 1,200,000 (an 8 MiB document of nested one-letter elements); the
// state-set runner, whose entries are whole frames, reads one of depth
// 2·maxKeptStack to keep the test's memory small.
func TestResetBoundsKeptStack(t *testing.T) {
	alpha := alphabet.New("a", "b")
	product, err := CompileProduct([]*Compiled{Compile(WellFormed(alpha)), Compile(ContainsLabel(alpha, "b"))}, 0)
	if err != nil {
		t.Fatal(err)
	}
	nnwa := CompileN(smallNNWA(alpha))
	runners := []struct {
		name  string
		depth int
		r     func() Runner
	}{
		{"dnwa", 1_200_000, func() Runner { return Compile(WellFormed(alpha)).NewRunner() }},
		{"product", 1_200_000, func() Runner { return product.NewProductRunner() }},
		{"nnwa", 2 * maxKeptStack, nnwa.NewRunner},
	}
	shallow := func(r Runner) bool {
		r.StepCall(0)
		r.StepInternal(1)
		r.StepReturn(0)
		r.StepInternal(0)
		return r.Accepting()
	}
	for _, tc := range runners {
		r := tc.r()
		for i := 0; i < tc.depth; i++ {
			r.StepCall(0)
		}
		if got := keptEntries(t, r); got < tc.depth {
			t.Fatalf("%s: stack holds %d entries at depth %d", tc.name, got, tc.depth)
		}
		for i := 0; i < tc.depth; i++ {
			r.StepReturn(0)
		}
		r.Reset()
		if got := keptEntries(t, r); got > maxKeptStack {
			t.Errorf("%s: Reset after depth %d kept %d stack entries, bound %d", tc.name, tc.depth, got, maxKeptStack)
		}
		if got, want := shallow(r), shallow(tc.r()); got != want {
			t.Errorf("%s: after the deep document Accepting = %v, a fresh runner says %v", tc.name, got, want)
		}
	}
}

// smallNNWA is a 3-state nondeterministic automaton over alpha with calls,
// internals and returns out of every state.
func smallNNWA(alpha *alphabet.Alphabet) *nwa.NNWA {
	const n = 3
	a := nwa.NewNNWA(alpha, n)
	a.AddStart(0)
	a.AddAccept(n - 1)
	for q := 0; q < n; q++ {
		a.AddInternal(q, "a", (q+1)%n)
		a.AddInternal(q, "b", q)
		a.AddCall(q, "a", (q+1)%n, q)
		a.AddCall(q, "a", q, q)
		a.AddReturn(q, q, "a", (q+2)%n)
	}
	return a
}

// BenchmarkVetBundle tracks the cost of the artifact verifier on the CLI
// standard set.  Vet is a pre-deployment check, not a boot step: its
// reachability analysis grows with the product automata, and one VetBytes
// of the planned batch-reload bundle (three products of 229–257 states)
// takes about 0.12 s on a 2-vCPU machine.
func BenchmarkVetBundle(b *testing.B) {
	alpha := alphabet.New("a", "b")
	names, queries := StandardSet(alpha, []string{"a", "b"}, []string{"a", "b"})
	bdl := NewBundle(alpha)
	for i, q := range queries {
		if err := bdl.Add(names[i], q); err != nil {
			b.Fatal(err)
		}
	}
	data := bdl.Marshal()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := VetBytes(data)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Errors() != 0 {
			b.Fatal(fmt.Errorf("standard set does not vet clean:\n%s", rep))
		}
	}
}
