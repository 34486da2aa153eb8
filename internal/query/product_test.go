package query

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/alphabet"
	"repro/internal/generator"
	"repro/internal/nwa"
	"repro/internal/word"
)

// detProductMembers is the deterministic cluster the differentials run on:
// structurally similar but distinct queries over the shared {a,b} alphabet.
func detProductMembers() ([]*Compiled, []*nwa.DNWA) {
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
func orderProductMembers() ([]*Compiled, []*nwa.DNWA) {
	alpha := generator.AB
	return compileMembers(
		ContainsLabel(alpha, "a"),
		LinearOrder(alpha, "b", "a"),
		LinearOrder(alpha, "a", "b", "b"),
	)
}

// wideProductMembers is a cluster whose packed tuple keys need two words:
// eight flat "at least n a's" counters, n = 256..263 — the automaton
// LinearOrder compiles a run of n a's to, built straight from its word DFA.
// Every member has more than 256 states, so each takes 9 bits of a key and
// the eighth starts a second word.
func wideProductMembers() ([]*Compiled, []*nwa.DNWA) {
	alpha := generator.AB
	sources := make([]*nwa.DNWA, 8)
	for j := range sources {
		n := 256 + j
		dfa := word.NewDFABuilder(alpha, n+1).SetAccept(n)
		for q := 0; q <= n; q++ {
			dfa.AddTransition(q, "a", min(q+1, n)).AddTransition(q, "b", q)
		}
		sources[j] = nwa.FlatFromWordDFAOverPlainAlphabet(dfa.Build(), alpha)
	}
	return compileMembers(sources...)
}

func compileMembers(sources ...*nwa.DNWA) ([]*Compiled, []*nwa.DNWA) {
	members := make([]*Compiled, len(sources))
	for i, d := range sources {
		members[i] = Compile(d)
	}
	return members, sources
}

// TestProductDNWADifferential is the correctness criterion for the
// deterministic product: 1200 random nested words — pending calls/returns
// and out-of-alphabet labels included — where every verdict bit of the
// product runner must equal both the member's own fanned-out runner and the
// serial source-automaton oracle, on a cluster whose return table keeps
// every hierarchical column and on one compacted to H < num.  Each product
// runs as compiled, and decoded from its container.
func TestProductDNWADifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(606))
	alpha := generator.AB
	// "zz" is not in the compiled alphabet, so a third of the event stream
	// exercises the out-of-alphabet column.
	words, pending := randomWords(rng, 1200, []string{"a", "b", "zz"})
	if pending == 0 {
		t.Fatal("no words with pending calls/returns were generated")
	}
	for _, cluster := range []struct {
		name      string
		build     func() ([]*Compiled, []*nwa.DNWA)
		compacted bool
	}{
		{"mixed", detProductMembers, false},
		{"orders", orderProductMembers, true},
	} {
		members, sources := cluster.build()
		p, err := CompileProduct(members, 0)
		if err != nil {
			t.Fatalf("%s: CompileProduct: %v", cluster.name, err)
		}
		if p.nq != len(members) {
			t.Fatalf("%s: %d members, want %d", cluster.name, p.nq, len(members))
		}
		if cluster.compacted && p.inner.hiers >= p.inner.num {
			t.Fatalf("%s: product keeps %d hierarchical columns for %d states, want fewer",
				cluster.name, p.inner.hiers, p.inner.num)
		}
		checkProductReturns(t, cluster.name, members)
		for _, form := range []struct {
			name string
			p    *CompiledProduct
		}{
			{"compiled", p},
			{"decoded", roundTripProduct(t, p)},
		} {
			pr := form.p.NewProductRunner()
			fan := make([]Runner, len(members))
			for j, m := range members {
				fan[j] = m.NewRunner()
			}
			for wi, w := range words {
				RunWord(pr, alpha, w)
				for j := range members {
					got := pr.Verdict(j)
					if want := RunWord(fan[j], alpha, w); got != want {
						t.Fatalf("%s (%s), word %d, member %d: product %v, fan-out runner %v on %v",
							cluster.name, form.name, wi, j, got, want, w)
					}
					if want := sources[j].Accepts(w); got != want {
						t.Fatalf("%s (%s), word %d, member %d: product %v, serial DNWA %v on %v",
							cluster.name, form.name, wi, j, got, want, w)
					}
				}
			}
		}
	}
}

// roundTripProduct decodes p from its own container.
func roundTripProduct(t testing.TB, p *CompiledProduct) *CompiledProduct {
	t.Helper()
	dec, err := unmarshalProduct(p.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	return dec
}

// checkBudgetExact asserts that a product's state count n is exactly the
// budget its cluster needs: CompileProduct at budget n rebuilds the same
// bytes, and at n-1 reports ErrStateBudget.
func checkBudgetExact(t testing.TB, name string, members []*Compiled, p *CompiledProduct) {
	t.Helper()
	n := p.NumStates()
	again, err := CompileProduct(members, n)
	if err != nil {
		t.Fatalf("%s: budget %d (the product's own size): %v", name, n, err)
	}
	if !bytes.Equal(again.Marshal(), p.Marshal()) {
		t.Fatalf("%s: budget %d built different bytes than the unbudgeted product", name, n)
	}
	if n > 1 {
		if _, err := CompileProduct(members, n-1); !errors.Is(err, ErrStateBudget) {
			t.Fatalf("%s: budget %d, one below the product's size: err = %v, want ErrStateBudget", name, n-1, err)
		}
	}
}

// TestProductBudgetExact checks that the state budget is exact on every
// member subset of the two differential clusters, and on the wide cluster
// whose state and class keys span two words; the wide product must also
// agree with its members' own runners.
func TestProductBudgetExact(t *testing.T) {
	for _, cluster := range []struct {
		name  string
		build func() ([]*Compiled, []*nwa.DNWA)
	}{
		{"mixed", detProductMembers},
		{"orders", orderProductMembers},
	} {
		family, _ := cluster.build()
		for mask := 1; mask < 1<<len(family); mask++ {
			var members []*Compiled
			for j, q := range family {
				if mask&(1<<j) != 0 {
					members = append(members, q)
				}
			}
			p, err := CompileProduct(members, 0)
			if err != nil {
				t.Fatalf("%s, mask %b: CompileProduct: %v", cluster.name, mask, err)
			}
			checkBudgetExact(t, fmt.Sprintf("%s, mask %b", cluster.name, mask), members, p)
		}
	}

	members, sources := wideProductMembers()
	if b := newDetBuilder(members, 0); b.tp.w < 2 || b.cp.w < 2 {
		t.Fatalf("wide cluster packs state tuples into %d word(s) and class tuples into %d, want at least 2 each",
			b.tp.w, b.cp.w)
	}
	p, err := CompileProduct(members, 0)
	if err != nil {
		t.Fatalf("wide: CompileProduct: %v", err)
	}
	checkBudgetExact(t, "wide", members, p)
	// Words of 400-459 events, three fifths of them labelled a, straddle
	// the members' thresholds, so every member both accepts and rejects.
	rng := rand.New(rand.NewSource(909))
	labels := []string{"a", "a", "a", "b", "b"}
	pr := p.NewProductRunner()
	var seen [2]int
	for wi := 0; wi < 200; wi++ {
		w := generator.RandomNestedWord(rng, 400+rng.Intn(60), labels)
		RunWord(pr, generator.AB, w)
		for j := range members {
			got := pr.Verdict(j)
			if want := sources[j].Accepts(w); got != want {
				t.Fatalf("wide, word %d, member %d: product %v, serial DNWA %v", wi, j, got, want)
			}
			if j == len(members)-1 && got {
				seen[1]++
			} else if j == 0 && !got {
				seen[0]++
			}
		}
	}
	if seen[0] == 0 || seen[1] == 0 {
		t.Fatalf("wide: first member rejected %d words, last member accepted %d; want both nonzero", seen[0], seen[1])
	}
}

// TestProductMaterializeMisses checks that the materialization pass only
// looks tuples up: with one discovered state tuple dropped from its table
// after the fixpoint, or one (LID, HID) pair missing from a LID's row of
// class tuples, the build fails with errUndiscovered instead of interning
// the tuple as a new state outside the tables or reading past the row.
func TestProductMaterializeMisses(t *testing.T) {
	ms, _ := orderProductMembers()
	build := func() *detBuilder {
		b := newDetBuilder(ms, maxStates)
		if err := b.fixpoint(); err != nil {
			t.Fatalf("fixpoint: %v", err)
		}
		return b
	}
	if _, err := build().materialize(); err != nil {
		t.Fatalf("intact build: %v", err)
	}
	n := build().states.len()
	for victim := int32(0); int(victim) < n; victim++ {
		b := build()
		// Rebuild the slots without one key, keeping every other ID.
		clear(b.states.slots)
		for id := int32(0); int(id) < n; id++ {
			if id != victim {
				i, _ := b.states.find(b.states.key(id))
				b.states.slots[i] = id + 1
			}
		}
		if p, err := b.materialize(); !errors.Is(err, errUndiscovered) {
			t.Fatalf("state tuple %d of %d dropped: p, err = %v, %v, want errUndiscovered", victim, n, p, err)
		}
	}
	lids := build().lids.len()
	for l := 0; l < lids; l++ {
		b := build()
		b.pairRow[l] = b.pairRow[l][:len(b.pairRow[l])-1]
		if p, err := b.materialize(); !errors.Is(err, errUndiscovered) {
			t.Fatalf("last pair of LID %d of %d dropped: p, err = %v, %v, want errUndiscovered", l, lids, p, err)
		}
	}
}

// checkProductReturns is the return-table oracle of the factored product:
// it rebuilds the product of ms and checks that, for every (lin, hier < H,
// sym), the return step goes to the product state whose tuple is the
// members' own return steps on the pair's member states.  It does not use
// the member classes, LIDs or HIDs the construction pairs through.
func checkProductReturns(t testing.TB, name string, ms []*Compiled) {
	t.Helper()
	b := newDetBuilder(ms, maxStates)
	if err := b.fixpoint(); err != nil {
		t.Fatalf("%s: fixpoint: %v", name, err)
	}
	p, err := b.materialize()
	if err != nil {
		t.Fatalf("%s: materialize: %v", name, err)
	}
	c := p.inner
	dt, target := make([]int32, len(ms)), make([]int32, len(ms))
	key := make([]uint64, b.tp.w)
	for q := int32(0); int(q) < c.num; q++ {
		b.unpack(q, dt)
		for h := int32(0); int(h) < c.hiers; h++ {
			ht := b.hierTuple(int(h))
			for sym := 0; sym < c.syms; sym++ {
				for j, m := range ms {
					target[j] = m.stepReturn(dt[j], ht[j], sym)
				}
				b.tp.pack(key, target)
				if _, want := b.states.find(key); c.stepReturn(q, h, sym) != want || want < 0 {
					t.Fatalf("%s: return (%d, %d, %d) = %d, want %d", name, q, h, sym, c.stepReturn(q, h, sym), want)
				}
			}
		}
	}
}

// TestCompileProductErrors pins the rejection paths: empty cluster,
// mismatched alphabets, and — the planner's fallback signal — a state
// budget smaller than the reachable product.
func TestCompileProductErrors(t *testing.T) {
	alpha := generator.AB
	det := Compile(WellFormed(alpha))
	other := Compile(WellFormed(alphabet.New("x", "y")))

	if _, err := CompileProduct(nil, 0); err == nil {
		t.Error("CompileProduct(nil) did not fail")
	}
	if _, err := CompileProduct([]*Compiled{det, other}, 0); err == nil {
		t.Error("mismatched alphabets did not fail")
	}
	if _, err := CompileProduct([]*Compiled{det, det}, 1); !errors.Is(err, ErrStateBudget) {
		t.Errorf("tiny deterministic budget: err = %v, want ErrStateBudget", err)
	}
	if p, err := CompileProduct([]*Compiled{det}, 0); err != nil || p.nq != 1 {
		t.Errorf("singleton cluster: p, err = %v, %v", p, err)
	}
}

// TestProductSingleMemberMatchesQuery sanity-checks the degenerate
// products: a one-member cluster's verdict bit, and the verdict of the
// one-member product SoloProduct wraps around the query (the form the
// engine serves solo queries in), equal the member's own verdict on a
// spread of documents.
func TestProductSingleMemberMatchesQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(808))
	alpha := generator.AB
	member := Compile(PathQuery(alpha, "a", "b"))
	p, err := CompileProduct([]*Compiled{member}, 0)
	if err != nil {
		t.Fatalf("CompileProduct: %v", err)
	}
	prs := []*ProductRunner{p.NewProductRunner(), SoloProduct(member).NewProductRunner()}
	r := member.NewRunner()
	words, _ := randomWords(rng, 200, []string{"a", "b", "zz"})
	for wi, w := range words {
		want := RunWord(r, alpha, w)
		for k, pr := range prs {
			RunWord(pr, alpha, w)
			if got := pr.Verdict(0); got != want {
				t.Fatalf("word %d, product %d: verdict %v, member %v on %v", wi, k, got, want, w)
			}
		}
	}
}

// TestProductWideMask checks verdict rows of more than one word: a product
// of 67 members — copies of three small DNWAs, so the reachable product
// stays small — must answer Verdict(j) for every j, across the word
// boundary at 63/64 and at the last member, as each member's own runner
// does on random words with pending calls and returns, both as compiled
// and after a Marshal/unmarshalProduct round trip.
func TestProductWideMask(t *testing.T) {
	alpha := generator.AB
	shapes := []*Compiled{
		Compile(ContainsLabel(alpha, "a")),
		Compile(PathQuery(alpha, "a", "b")),
		Compile(WellFormed(alpha)),
	}
	const k = 67
	members := make([]*Compiled, k)
	for j := range members {
		members[j] = shapes[j%len(shapes)]
	}
	p, err := CompileProduct(members, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.maskW != 2 {
		t.Fatalf("%d members use %d mask words, want 2", k, p.maskW)
	}
	dec, err := unmarshalProduct(p.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6464))
	words, pending := randomWords(rng, 300, []string{"a", "b", "zz"})
	if pending == 0 {
		t.Fatal("no words with pending calls/returns were generated")
	}
	fan := make([]Runner, k)
	for j, m := range members {
		fan[j] = m.NewRunner()
	}
	var accepted, rejected [k]bool
	for _, form := range []struct {
		name string
		p    *CompiledProduct
	}{{"compiled", p}, {"decoded", dec}} {
		pr := form.p.NewProductRunner()
		for wi, w := range words {
			RunWord(pr, alpha, w)
			for j := range members {
				want := RunWord(fan[j], alpha, w)
				if got := pr.Verdict(j); got != want {
					t.Fatalf("%s, word %d, member %d: product %v, member runner %v on %v",
						form.name, wi, j, got, want, w)
				}
				accepted[j] = accepted[j] || want
				rejected[j] = rejected[j] || !want
			}
		}
	}
	for _, j := range []int{63, 64, k - 1} {
		if !accepted[j] || !rejected[j] {
			t.Errorf("member %d never both accepted and rejected; the row's word boundary is untested", j)
		}
	}
}
