package query

import (
	"math/rand"
	"testing"

	"repro/internal/generator"
	"repro/internal/nestedword"
	"repro/internal/nwa"
)

// randomWords yields a mix of arbitrary nested words (with pending calls and
// returns) and well-matched documents, and reports how many were pending.
func randomWords(rng *rand.Rand, trials int, labels []string) ([]*nestedword.NestedWord, int) {
	words := make([]*nestedword.NestedWord, trials)
	pending := 0
	for i := range words {
		if i%3 == 0 {
			words[i] = generator.RandomDocument(rng, 2+rng.Intn(50), 6, labels)
		} else {
			words[i] = generator.RandomNestedWord(rng, rng.Intn(50), labels)
		}
		if !words[i].IsWellMatched() {
			pending++
		}
	}
	return words, pending
}

func randomNNWA(rng *rand.Rand, states int) *nwa.NNWA {
	a := nwa.NewNNWA(generator.AB, states)
	a.AddStart(rng.Intn(states))
	a.AddAccept(rng.Intn(states))
	edges := 4 + rng.Intn(6*states)
	for i := 0; i < edges; i++ {
		sym := []string{"a", "b"}[rng.Intn(2)]
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

// TestCompiledDNWADifferential checks that the compiled deterministic runner
// agrees with the source DNWA on random words, including words with pending
// calls and returns, both as compiled and decoded from its container,
// copied and mapped.
func TestCompiledDNWADifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	alpha := generator.AB
	queries := []*nwa.DNWA{
		WellFormed(alpha),
		PathQuery(alpha, "a", "b"),
		LinearOrder(alpha, "a", "b", "a"),
		nwa.Intersect(WellFormed(alpha), ContainsLabel(alpha, "b")),
	}
	words, pending := randomWords(rng, 400, []string{"a", "b"})
	if pending == 0 {
		t.Fatal("no words with pending calls/returns were generated")
	}
	for qi, d := range queries {
		c := Compile(d)
		copied, err := DecodeQuery(c.marshal(), false)
		if err != nil {
			t.Fatal(err)
		}
		mapped, err := DecodeQuery(c.marshal(), true)
		if err != nil {
			t.Fatal(err)
		}
		for _, form := range []struct {
			name string
			q    *Compiled
		}{
			{"compiled", c},
			{"decoded", copied},
			{"mapped", mapped},
		} {
			r := form.q.NewRunner()
			for wi, w := range words {
				if got, want := RunWord(r, alpha, w), d.Accepts(w); got != want {
					t.Fatalf("query %d (%s), word %d: compiled %v, DNWA %v on %v",
						qi, form.name, wi, got, want, w)
				}
			}
		}
	}
}

// TestCompileReturnTable is the property test of the factored layout on
// single DNWAs: for random determinized automata and the query library,
// every (lin, hier, sym) of the compiled return step equals the source
// automaton's transition (the dead state where it has none), under
// Compile's hier-first renumbering, and so does every call and internal
// cell.  Hier-capable states come first, and only they have return rows.
func TestCompileReturnTable(t *testing.T) {
	rng := rand.New(rand.NewSource(112))
	alpha := generator.AB
	sources := []*nwa.DNWA{
		WellFormed(alpha),
		PathQuery(alpha, "a", "b"),
		LinearOrder(alpha, "a", "b", "a"),
		nwa.Intersect(WellFormed(alpha), ContainsLabel(alpha, "b")),
	}
	for len(sources) < 16 {
		// Determinization can reach a thousand states; keep the
		// cell-by-cell check fast.
		if d := randomNNWA(rng, 2+rng.Intn(2)).Determinize(); d.NumStates() <= 500 {
			sources = append(sources, d)
		}
	}
	for di, d := range sources {
		c := Compile(d)
		id, hiers := hierFirst(d)
		if c.hiers != hiers || int(c.start) >= hiers || int(c.dead) >= hiers {
			t.Fatalf("automaton %d: H = %d (hierFirst %d), start %d, dead %d", di, c.hiers, hiers, c.start, c.dead)
		}
		if len(c.rowID) != c.num*c.hiers || len(c.rows)%c.syms != 0 {
			t.Fatalf("automaton %d: %d row IDs and %d row cells for %d×%d pairs of %d symbols",
				di, len(c.rowID), len(c.rows), c.num, c.hiers, c.syms)
		}
		for q := 0; q < d.NumStates(); q++ {
			for sym := 0; sym < c.syms; sym++ {
				label := "\x00" // outside the alphabet: the out-of-alphabet column
				if sym < alpha.Size() {
					label = alpha.Symbol(sym)
				}
				lin, hier := d.StepCall(q, label)
				i := int(id[q])*c.syms + sym
				if c.callLin[i] != id[lin] || c.callHier[i] != id[hier] || c.internT[i] != id[d.StepInternal(q, label)] {
					t.Fatalf("automaton %d: state %d, symbol %d: call/internal cell differs from the source", di, q, sym)
				}
				for h := 0; h < d.NumStates(); h++ {
					if int(id[h]) >= hiers {
						continue
					}
					if got, want := c.stepReturn(id[q], id[h], sym), id[d.StepReturn(q, h, label)]; got != want {
						t.Fatalf("automaton %d: return (%d, %d, %d) = %d, want %d", di, q, h, sym, got, want)
					}
				}
			}
		}
	}
}

// TestCompiledNNWADifferential holds NNWA ≡ Determinize+DNWA on the compiled
// forms: 1200 random nested words — including words with pending calls and
// returns — fed to the compiled state-set runner and Determinize+Compile,
// with identical verdicts required and cross-checked against NNWA.Accepts.
func TestCompiledNNWADifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	labels := []string{"a", "b"}
	const automata = 8
	const wordsPer = 150 // 8 × 150 = 1200 words total
	totalPending := 0
	for ai := 0; ai < automata; ai++ {
		a := randomNNWA(rng, 2+rng.Intn(3))
		c := CompileN(a)
		det := Compile(a.Determinize())
		runner := c.NewRunner()
		detRunner := det.NewRunner()
		words, pending := randomWords(rng, wordsPer, labels)
		totalPending += pending
		for wi, w := range words {
			got := RunWord(runner, generator.AB, w)
			want := RunWord(detRunner, generator.AB, w)
			if got != want {
				t.Fatalf("automaton %d, word %d: compiled NNWA %v, Determinize+DNWA %v on %v",
					ai, wi, got, want, w)
			}
			if ref := a.Accepts(w); got != ref {
				t.Fatalf("automaton %d, word %d: compiled NNWA %v, NNWA.Accepts %v on %v",
					ai, wi, got, ref, w)
			}
		}
	}
	if totalPending == 0 {
		t.Fatal("no words with pending calls/returns were generated")
	}
}

// TestRunnerOutOfAlphabet checks that the dedicated out-of-alphabet symbol
// ID behaves exactly like an unknown label on the source automaton: the
// deterministic runner drops to the dead state, the nondeterministic one to
// the empty set.
func TestRunnerOutOfAlphabet(t *testing.T) {
	alpha := generator.AB
	d := WellFormed(alpha)
	c := Compile(d)
	r := c.NewRunner()
	r.Reset()
	r.StepInternal(alpha.Size()) // the out-of-alphabet ID
	if r.Accepting() {
		t.Fatal("deterministic runner should be dead after an out-of-alphabet event")
	}
	// Stray IDs outside the compiled range clamp onto the same column.
	r.Reset()
	r.StepInternal(-7)
	if r.Accepting() {
		t.Fatal("negative symbol IDs should clamp to out-of-alphabet")
	}

	rn := CompileN(WellFormed(alpha).ToNondeterministic()).NewRunner()
	rn.StepCall(alpha.Size())
	rn.StepReturn(0)
	if rn.Accepting() {
		t.Fatal("nondeterministic runner should be empty after an out-of-alphabet call")
	}
}

// TestCompiledRunnerReset checks that runners are reusable across documents.
func TestCompiledRunnerReset(t *testing.T) {
	alpha := generator.AB
	c := Compile(PathQuery(alpha, "a", "b"))
	r := c.NewRunner()
	inside := nestedword.MustParse("<a <b b> a>")
	outside := nestedword.MustParse("<b <a a> b>")
	for i := 0; i < 3; i++ {
		if !RunWord(r, alpha, inside) {
			t.Fatalf("pass %d: //a//b should accept %v", i, inside)
		}
		if RunWord(r, alpha, outside) {
			t.Fatalf("pass %d: //a//b should reject %v", i, outside)
		}
	}
}
