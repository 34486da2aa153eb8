package query_test

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"testing"

	"repro/internal/alphabet"
	"repro/internal/experiments"
	"repro/internal/nwa"
	"repro/internal/query"
	"repro/internal/query/dsl"
	"repro/internal/query/plan"
)

// The clusters below are the shapes the batch-reload benchmark workload
// plans (benchmark/workload.go), built with the same constructors: the E21
// mix, the 16-member ContainsLabel family and three DSL within queries, all
// over sixteen labels.

var sixteen = []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l", "m", "n", "o", "p"}

func compileAll(ds []*nwa.DNWA) []*query.Compiled {
	qs := make([]*query.Compiled, len(ds))
	for i, d := range ds {
		qs[i] = query.Compile(d)
	}
	return qs
}

func e21Mix(alpha *alphabet.Alphabet) []*query.Compiled {
	_, ds := experiments.E21Queries(alpha, 8)
	return compileAll(ds)
}

func hasFamily(alpha *alphabet.Alphabet, labels []string) []*query.Compiled {
	qs := make([]*query.Compiled, len(labels))
	for i, l := range labels {
		qs[i] = query.Compile(query.ContainsLabel(alpha, l))
	}
	return qs
}

func withinTrio(tb testing.TB, alpha *alphabet.Alphabet) []*query.Compiled {
	tb.Helper()
	exprs, err := dsl.ParseList("within a: b before c; within d: e before f; within g: h before i")
	if err != nil {
		tb.Fatal(err)
	}
	_, qs, err := dsl.Queries(alpha, exprs)
	if err != nil {
		tb.Fatal(err)
	}
	return qs
}

// TestProductBytesPinned pins the bytes of every product the batch-reload
// shapes compile to under the planner's default budget, as SHA-256 of
// Marshal(), so a change to the construction that renumbers a single state
// fails here.  Beside the planned families it covers two larger E21
// products: the 16-label mix without well-formed (H = 151) and the 3-label
// mix (H = 742).  It also pins the over-budget decision for the 16-label
// E21 mix, the cluster the planner rejects.
//
// Each product is pinned twice.  legacy is the hash of LegacyMarshal, the
// dense (sparse for e21-3) return layout written before the factored one;
// those hashes predate factoring, so they prove the factored table holds
// every (lin, hier, sym) target the old one did.  factored pins Marshal.
func TestProductBytesPinned(t *testing.T) {
	a16 := alphabet.New(sixteen...)
	a3 := alphabet.New("a", "b", "c")
	for _, c := range []struct {
		name     string
		members  []*query.Compiled
		states   int
		legacy   string
		factored string
	}{
		{"has a-h", hasFamily(a16, sixteen[:8]), 257,
			"ecd6a0af114db7173946bfafc8bf152b851cedef8e4b7f9bb68dc3d1d2eeea9c",
			"3b3821e8f6492fd6042d8d34dd5198364732fed0440791aaf28e5f753e66fade"},
		{"has i-p", hasFamily(a16, sixteen[8:]), 257,
			"01c3945403406fc64e2b2ed2765a64934df02f9d0ce7f12f5f2110d803b4481e",
			"38e397035f6d8443495165f62a66987b967ee6eeac75f8f7de15bc45e51519e0"},
		{"within-3", withinTrio(t, a16), 229,
			"2cd5ae7aee9dcfa160424be632cb250649c8b03aefd39cd3b003bff60980d21c",
			"d36a58736f42e4d23fc3381f0eccac93aa7b042c057185d44b8a0a7042ebddb2"},
		{"e21-16 without well-formed", e21Mix(a16)[1:], 1409,
			"96bbd3c9fa031e1baf1f1df853ce9490daa0e9fb979c94c90705e82186a08b8e",
			"8ea81acdb7c951230dfb0cf479ddbd74fd9a94707d2263183fc7c51a8910e290"},
		{"e21-3", e21Mix(a3), 3634,
			"d1174bd5a47d93fee69033f1551a53d736b19a166093f97f4e9f4a41b3503db2",
			"bcca5ff2c90f406c1560522fb5b3eee173632d7130a5e42866348fcf41b30b51"},
	} {
		p, err := query.CompileProduct(c.members, plan.DefaultStateBudget)
		if err != nil {
			t.Fatalf("%s: CompileProduct: %v", c.name, err)
		}
		if p.NumStates() != c.states {
			t.Errorf("%s: %d states, want %d", c.name, p.NumStates(), c.states)
		}
		for _, pin := range []struct {
			what, want string
			data       []byte
		}{
			{"LegacyMarshal", c.legacy, query.LegacyMarshal(p)},
			{"Marshal", c.factored, p.Marshal()},
		} {
			sum := sha256.Sum256(pin.data)
			if got := hex.EncodeToString(sum[:]); got != pin.want {
				t.Errorf("%s: %s() SHA-256 = %s, want %s", c.name, pin.what, got, pin.want)
			}
		}
	}
	if _, err := query.CompileProduct(e21Mix(a16), plan.DefaultStateBudget); !errors.Is(err, query.ErrStateBudget) {
		t.Errorf("e21-16: err = %v, want ErrStateBudget", err)
	}
}

// TestProductPairPruning pins how much of the return pairing the fixpoint
// skips.  It pairs only the first state of each tuple of member lin-classes
// (LID) with the first hier of each tuple of member hier-classes (HID), so
// visited pairs number exactly LIDs × HIDs, and of those it expands only
// the ones whose tuple of member return rows is new.  The counts are exact,
// so a change that pairs a non-representative, expands a pair twice, or
// stops skipping fails here even when the product's bytes do not move.
func TestProductPairPruning(t *testing.T) {
	a16 := alphabet.New(sixteen...)
	for _, c := range []struct {
		name              string
		members           []*query.Compiled
		expanded, visited int
		wantErr           error
	}{
		{"e21-16 over budget", e21Mix(a16), 19184, 150870, query.ErrStateBudget},
		{"e21-16 without well-formed", e21Mix(a16)[1:], 1261, 60345, nil},
		{"within-3", withinTrio(t, a16), 125, 14000, nil},
		{"has a-h", hasFamily(a16, sixteen[:8]), 257, 257, nil},
	} {
		n, err := query.ProductPairCounts(c.members, plan.DefaultStateBudget)
		if !errors.Is(err, c.wantErr) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.wantErr)
		}
		if n.Expanded != c.expanded || n.Visited != c.visited {
			t.Errorf("%s: expanded %d of %d pairs, want %d of %d", c.name, n.Expanded, n.Visited, c.expanded, c.visited)
		}
		if n.Visited != n.LinIDs*n.HierIDs {
			t.Errorf("%s: visited %d pairs, want %d LIDs × %d HIDs = %d", c.name, n.Visited, n.LinIDs, n.HierIDs, n.LinIDs*n.HierIDs)
		}
	}
}

// batchShape is the bundle the batch-reload workload plans, in its order:
// the E21 mix, the "has" family over all sixteen labels and the within trio.
func batchShape(tb testing.TB) *query.Bundle {
	tb.Helper()
	alpha := alphabet.New(sixteen...)
	b := query.NewBundle(alpha)
	add := func(name string, q *query.Compiled) {
		if err := b.Add(name, q); err != nil {
			tb.Fatal(err)
		}
	}
	names, ds := experiments.E21Queries(alpha, 8)
	for i, q := range compileAll(ds) {
		add(names[i], q)
	}
	for i, q := range hasFamily(alpha, sixteen) {
		add("has "+sixteen[i], q)
	}
	exprs, err := dsl.ParseList("within a: b before c; within d: e before f; within g: h before i")
	if err != nil {
		tb.Fatal(err)
	}
	names, qs, err := dsl.Queries(alpha, exprs)
	if err != nil {
		tb.Fatal(err)
	}
	for i, q := range qs {
		add(names[i], q)
	}
	return b
}

// TestPlannedShapePinned pins the planner's decision on the batch-reload
// shape and the SHA-256 of the planned bundle's Marshal(), so a drift in
// either the product construction or the subset construction behind the
// LinearOrder and ContainsLabel members fails here.  The E21 cluster
// overflows the default budget and stays solo; the two "has" families and
// the within trio are products.
func TestPlannedShapePinned(t *testing.T) {
	planned, dec, err := plan.Bundle(batchShape(t), plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Groups) != 3 || len(dec.Solo) != 8 || dec.States != 743 {
		t.Errorf("decision: %d groups, %d solo, %d states; want 3, 8, 743", len(dec.Groups), len(dec.Solo), dec.States)
	}
	const want = "504d72a1f8b627968aae2d760d967b9a2c261b60e10d510594cc2f16716b092e"
	sum := sha256.Sum256(planned.Marshal())
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("planned bundle Marshal() SHA-256 = %s, want %s", got, want)
	}
}

// BenchmarkPlanBundle times plan.Bundle on the batch-reload shape, compile
// excluded: the rejected E21 product, the two "has" products and the within
// trio's product.
func BenchmarkPlanBundle(b *testing.B) {
	src := batchShape(b)
	for b.Loop() {
		if _, _, err := plan.Bundle(src, plan.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompileProduct times the product construction on the
// batch-reload shapes: the over-budget E21 cluster the planner pays for and
// then rejects, one 8-member ContainsLabel family, and the within trio.
// e21-7, the 16-label mix without well-formed (1409 states, H = 151), is
// the largest 16-label product pinned above, so it also times the
// materialization pass.
func BenchmarkCompileProduct(b *testing.B) {
	a16 := alphabet.New(sixteen...)
	for _, c := range []struct {
		name    string
		members []*query.Compiled
		wantErr error
	}{
		{"e21-16-over-budget", e21Mix(a16), query.ErrStateBudget},
		{"e21-7", e21Mix(a16)[1:], nil},
		{"has-8", hasFamily(a16, sixteen[:8]), nil},
		{"within-3", withinTrio(b, a16), nil},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := query.CompileProduct(c.members, plan.DefaultStateBudget); !errors.Is(err, c.wantErr) {
					b.Fatalf("err = %v, want %v", err, c.wantErr)
				}
			}
		})
	}
}
