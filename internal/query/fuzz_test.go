package query

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/nestedword"
	"repro/internal/nwa"
)

// fuzzAut is one cached fuzz subject: a random NNWA, its compiled form, and
// its determinized DNWA, so every fuzz iteration reuses the (comparatively
// expensive) Determinize call.
type fuzzAut struct {
	n   *nwa.NNWA
	c   *CompiledN
	det *Compiled
}

var (
	fuzzMu   sync.Mutex
	fuzzAuts = map[uint8]*fuzzAut{}
)

// fuzzAutomaton derives a small random NNWA from the seed byte, with the
// occasional extra start and accept state so the subset simulation starts
// and finishes on non-singleton sets.
func fuzzAutomaton(seed uint8) *fuzzAut {
	fuzzMu.Lock()
	defer fuzzMu.Unlock()
	if a, ok := fuzzAuts[seed]; ok {
		return a
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	// 2–3 states keeps Determinize (2^(s²) worst case) fast for every seed,
	// so no single fuzz exec can stall the 10-second CI smoke run.
	states := 2 + rng.Intn(2)
	n := randomNNWA(rng, states)
	if rng.Intn(2) == 0 {
		n.AddStart(rng.Intn(states))
	}
	if rng.Intn(2) == 0 {
		n.AddAccept(rng.Intn(states))
	}
	a := &fuzzAut{n: n, c: CompileN(n), det: Compile(n.Determinize())}
	fuzzAuts[seed] = a
	return a
}

// FuzzNNWARunnerDifferential is the NNWA differential fuzz target: an
// arbitrary byte string decodes to an arbitrary nested word — each byte
// picks an event kind (call / internal / return) and a symbol (two
// in-alphabet labels plus the out-of-alphabet ID), so well-matched words,
// pending calls, and pending returns all occur — and the compiled state-set
// runner and Determinize+DNWA must report the same verdict after every
// prefix, and NNWA.Accepts the same verdict on the whole word.
func FuzzNNWARunnerDifferential(f *testing.F) {
	f.Add(uint8(0), []byte{})
	f.Add(uint8(1), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint8(7), []byte{0, 0, 4, 2, 2, 5})   // nested calls, matched and pending
	f.Add(uint8(42), []byte{2, 5, 8, 1, 0, 2})  // pending returns first
	f.Add(uint8(255), []byte{6, 7, 8, 6, 7, 8}) // out-of-alphabet symbols
	f.Fuzz(func(t *testing.T, seed uint8, word []byte) {
		if len(word) > 4096 {
			word = word[:4096] // bound stack depth and per-input runtime
		}
		aut := fuzzAutomaton(seed)
		nnwa := aut.c.NewRunner()
		det := aut.det.NewRunner()
		labels := []string{"a", "b", "out-of-alphabet"}
		kinds := []nestedword.Kind{nestedword.Call, nestedword.Internal, nestedword.Return}
		positions := make([]nestedword.Position, len(word))
		for pos, b := range word {
			kind := int(b) % 3
			sym := int(b/3) % 3 // 0,1 are in-alphabet; 2 is the out-of-alphabet ID
			positions[pos] = nestedword.Position{Symbol: labels[sym], Kind: kinds[kind]}
			for _, r := range []Runner{nnwa, det} {
				switch kind {
				case 0:
					r.StepCall(sym)
				case 1:
					r.StepInternal(sym)
				default:
					r.StepReturn(sym)
				}
			}
			if nv, dv := nnwa.Accepting(), det.Accepting(); nv != dv {
				t.Fatalf("seed %d, prefix %d (kind %d, sym %d): compiled NNWA %v, Determinize+DNWA %v",
					seed, pos+1, kind, sym, nv, dv)
			}
		}
		if got, want := nnwa.Accepting(), aut.n.Accepts(nestedword.New(positions...)); got != want {
			t.Fatalf("seed %d: compiled NNWA %v, NNWA.Accepts %v on the whole word", seed, got, want)
		}
	})
}
