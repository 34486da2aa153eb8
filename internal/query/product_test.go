package query

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/alphabet"
	"repro/internal/bitset"
	"repro/internal/generator"
	"repro/internal/nestedword"
	"repro/internal/nwa"
)

// runProductWord drives a product runner over a whole nested word, interning
// each symbol against alpha, and leaves the member verdicts in dst — the
// ProductRunner counterpart of RunWord.
func runProductWord(r *ProductRunner, alpha *alphabet.Alphabet, n *nestedword.NestedWord, dst bitset.Row) {
	r.Reset()
	ooa := alpha.Size()
	for i := 0; i < n.Len(); i++ {
		sym, ok := alpha.Index(n.SymbolAt(i))
		if !ok {
			sym = ooa
		}
		switch n.KindAt(i) {
		case nestedword.Call:
			r.StepCall(sym)
		case nestedword.Return:
			r.StepReturn(sym)
		default:
			r.StepInternal(sym)
		}
	}
	r.Verdicts(dst)
}

// detProductMembers is the deterministic cluster the differentials run on:
// structurally similar but distinct queries over the shared {a,b} alphabet.
func detProductMembers() ([]Query, []*nwa.DNWA) {
	alpha := generator.AB
	return compileMembers(
		WellFormed(alpha),
		PathQuery(alpha, "a", "b"),
		LinearOrder(alpha, "a", "b", "a"),
		ContainsLabel(alpha, "b"),
		nwa.Intersect(WellFormed(alpha), ContainsLabel(alpha, "a")),
	)
}

// orderProductMembers is a cluster of linear-order queries: their calls
// push few distinct hierarchical states, so the product's return table
// needs fewer hierarchical columns than it has states (H < num).
func orderProductMembers() ([]Query, []*nwa.DNWA) {
	alpha := generator.AB
	return compileMembers(
		ContainsLabel(alpha, "a"),
		LinearOrder(alpha, "b", "a"),
		LinearOrder(alpha, "a", "b", "b"),
	)
}

func compileMembers(sources ...*nwa.DNWA) ([]Query, []*nwa.DNWA) {
	members := make([]Query, len(sources))
	for i, d := range sources {
		members[i] = Compile(d)
	}
	return members, sources
}

// TestProductDNWADifferential is the correctness criterion for the
// deterministic product: 1200 random nested words — pending calls/returns
// and out-of-alphabet labels included — where every verdict bit of the
// product runner must equal both the member's own fanned-out runner and the
// serial source-automaton oracle, for the dense and sparse return forms, on
// a cluster whose return table keeps every hierarchical column and on one
// compacted to H < num.
func TestProductDNWADifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(606))
	alpha := generator.AB
	// "zz" is not in the compiled alphabet, so a third of the event stream
	// exercises the out-of-alphabet column.
	words, pending := randomWords(rng, 1200, []string{"a", "b", "zz"})
	if pending == 0 {
		t.Fatal("no words with pending calls/returns were generated")
	}
	defer func(old int) { denseReturnLimit = old }(denseReturnLimit)
	for _, cluster := range []struct {
		name      string
		build     func() ([]Query, []*nwa.DNWA)
		compacted bool
	}{
		{"mixed", detProductMembers, false},
		{"orders", orderProductMembers, true},
	} {
		for _, limit := range []int{denseReturnLimit, 1} {
			denseReturnLimit = limit
			members, sources := cluster.build()
			p, err := CompileProduct(members, 0)
			if err != nil {
				t.Fatalf("%s, limit %d: CompileProduct: %v", cluster.name, limit, err)
			}
			if p.QueryCount() != len(members) {
				t.Fatalf("%s, limit %d: QueryCount = %d, want %d", cluster.name, limit, p.QueryCount(), len(members))
			}
			inner := p.inner
			if want := limit > 1; inner.Dense() != want {
				t.Fatalf("%s, limit %d: product Dense() = %v, want %v", cluster.name, limit, inner.Dense(), want)
			}
			if cluster.compacted && inner.hiers >= inner.num {
				t.Fatalf("%s: product keeps %d hierarchical columns for %d states, want fewer",
					cluster.name, inner.hiers, inner.num)
			}
			pr := p.NewProductRunner()
			verdicts := bitset.New(p.QueryCount())
			fan := make([]Runner, len(members))
			for j, m := range members {
				fan[j] = m.NewRunner()
			}
			for wi, w := range words {
				runProductWord(pr, alpha, w, verdicts)
				for j := range members {
					got := verdicts.Has(j)
					if want := RunWord(fan[j], alpha, w); got != want {
						t.Fatalf("%s, limit %d, word %d, member %d: product %v, fan-out runner %v on %v",
							cluster.name, limit, wi, j, got, want, w)
					}
					if want := sources[j].Accepts(w); got != want {
						t.Fatalf("%s, limit %d, word %d, member %d: product %v, serial DNWA %v on %v",
							cluster.name, limit, wi, j, got, want, w)
					}
				}
			}
		}
	}
}

// TestCompileProductErrors pins the rejection paths: empty cluster,
// nondeterministic members, mismatched alphabets, and — the planner's
// fallback signal — a state budget smaller than the reachable product.
func TestCompileProductErrors(t *testing.T) {
	alpha := generator.AB
	det := Compile(WellFormed(alpha))
	ndet := CompileN(PathQuery(alpha, "a", "b").ToNondeterministic())
	other := Compile(WellFormed(alphabet.New("x", "y")))

	if _, err := CompileProduct(nil, 0); err == nil {
		t.Error("CompileProduct(nil) did not fail")
	}
	if _, err := CompileProduct([]Query{det, ndet}, 0); err == nil {
		t.Error("mixed Compiled/CompiledN cluster did not fail")
	}
	if _, err := CompileProduct([]Query{ndet, det}, 0); err == nil {
		t.Error("mixed CompiledN/Compiled cluster did not fail")
	}
	if _, err := CompileProduct([]Query{det, other}, 0); err == nil {
		t.Error("mismatched alphabets did not fail")
	}
	if _, err := CompileProduct([]Query{det, det}, 1); !errors.Is(err, ErrStateBudget) {
		t.Errorf("tiny deterministic budget: err = %v, want ErrStateBudget", err)
	}
	if _, err := CompileProduct([]Query{ndet, ndet}, 0); err == nil || errors.Is(err, ErrStateBudget) {
		t.Errorf("nondeterministic cluster: err = %v, want a member-form error", err)
	}
	if p, err := CompileProduct([]Query{det}, 0); err != nil || p.QueryCount() != 1 {
		t.Errorf("singleton cluster: p, err = %v, %v", p, err)
	}
}

// TestProductSingleMemberMatchesQuery sanity-checks the degenerate product:
// a one-member cluster's verdict bit equals the member's own verdict on a
// spread of documents.
func TestProductSingleMemberMatchesQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(808))
	alpha := generator.AB
	member := Compile(PathQuery(alpha, "a", "b"))
	p, err := CompileProduct([]Query{member}, 0)
	if err != nil {
		t.Fatalf("CompileProduct: %v", err)
	}
	pr := p.NewProductRunner()
	verdicts := bitset.New(1)
	r := member.NewRunner()
	words, _ := randomWords(rng, 200, []string{"a", "b"})
	for wi, w := range words {
		runProductWord(pr, alpha, w, verdicts)
		if got, want := verdicts.Has(0), RunWord(r, alpha, w); got != want {
			t.Fatalf("word %d: product %v, member %v on %v", wi, got, want, w)
		}
	}
}
