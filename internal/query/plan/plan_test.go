package plan

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/generator"
	"repro/internal/nestedword"
	"repro/internal/query"
	"repro/internal/query/dsl"
)

// buildBundle compiles a mixed bundle: order linear-order queries followed
// by paths hierarchical path queries, all over the {a,b} alphabet.
func buildBundle(t *testing.T, order, paths int) *query.Bundle {
	t.Helper()
	alpha := generator.AB
	b := query.NewBundle(alpha)
	labels := []string{"a", "b"}
	for i := 0; i < order; i++ {
		q := query.Compile(query.LinearOrder(alpha, labels[i%2], labels[(i+1)%2]))
		if err := b.Add("order-"+string(rune('a'+i)), q); err != nil {
			t.Fatalf("Add order %d: %v", i, err)
		}
	}
	for i := 0; i < paths; i++ {
		q := query.Compile(query.PathQuery(alpha, labels[i%2], labels[(i+1)%2]))
		if err := b.Add("path-"+string(rune('a'+i)), q); err != nil {
			t.Fatalf("Add path %d: %v", i, err)
		}
	}
	return b
}

// verdictsAgree runs every query of the planned bundle — products and solo
// alike — against the unplanned per-query oracle on random words.
func verdictsAgree(t *testing.T, src, planned *query.Bundle) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	words := make([]*nestedword.NestedWord, 150)
	for i := range words {
		if i%3 == 0 {
			words[i] = generator.RandomNestedWord(rng, rng.Intn(40), []string{"a", "b", "zz"})
		} else {
			words[i] = generator.RandomDocument(rng, 2+rng.Intn(40), 5, []string{"a", "b"})
		}
	}
	alpha := src.Alphabet()
	got := make([]bool, planned.Len())
	for wi, w := range words {
		for i := range got {
			got[i] = false
		}
		for i := 0; i < planned.Len(); i++ {
			if q := planned.Compiled(i); q != nil {
				got[i] = query.RunWord(q.NewRunner(), alpha, w)
			}
		}
		for _, g := range planned.Groups() {
			pr := g.Product.NewProductRunner()
			query.RunWord(pr, alpha, w)
			for j, idx := range g.Indices {
				got[idx] = pr.Verdict(j)
			}
		}
		for i := 0; i < src.Len(); i++ {
			want := query.RunWord(src.Query(i).NewRunner(), alpha, w)
			if got[i] != want {
				t.Fatalf("word %d, query %q: planned %v, fan-out %v on %v",
					wi, src.Name(i), got[i], want, w)
			}
		}
	}
}

func TestPlannerClustersByForm(t *testing.T) {
	src := buildBundle(t, 5, 3)
	planned, dec, err := Bundle(src, Options{})
	if err != nil {
		t.Fatalf("Bundle: %v", err)
	}
	// 5 linear-order + 3 path queries at cluster size 8: whatever
	// construction built them, every query is a compiled DNWA, so all eight
	// form one product.
	if len(dec.Groups) != 1 || len(dec.Groups[0]) != 8 || len(dec.Solo) != 0 {
		t.Fatalf("decision = %+v, want one 8-query group and none solo", dec)
	}
	if got := len(planned.Groups()); got != 1 {
		t.Fatalf("planned bundle has %d groups, want 1", got)
	}
	if dec.States <= 0 {
		t.Fatalf("decision reports %d product states", dec.States)
	}
	if planned.Len() != src.Len() {
		t.Fatalf("planned bundle holds %d names, want %d", planned.Len(), src.Len())
	}
	verdictsAgree(t, src, planned)
}

// TestPlannerWithinCluster plans DSL within queries, which compile to
// DNWAs and so form a product whose return table is compacted to its
// hierarchical states (86 of 171 over {a,b}); the product must agree with
// fan-out, pending returns included.
func TestPlannerWithinCluster(t *testing.T) {
	exprs, err := dsl.ParseList("within a: b before a; within b: a before b; within a: a before b")
	if err != nil {
		t.Fatal(err)
	}
	names, queries, err := dsl.Queries(generator.AB, exprs)
	if err != nil {
		t.Fatal(err)
	}
	src := buildBundle(t, 0, 0)
	for i, q := range queries {
		if err := src.Add(names[i], q); err != nil {
			t.Fatal(err)
		}
	}
	planned, dec, err := Bundle(src, Options{})
	if err != nil {
		t.Fatalf("Bundle: %v", err)
	}
	if len(dec.Groups) != 1 || len(dec.Groups[0]) != 3 || len(dec.Solo) != 0 {
		t.Fatalf("decision = %+v, want the 3 within queries in one group", dec)
	}
	verdictsAgree(t, src, planned)
}

func TestPlannerClusterSizeChunks(t *testing.T) {
	src := buildBundle(t, 5, 0)
	planned, dec, err := Bundle(src, Options{ClusterSize: 2})
	if err != nil {
		t.Fatalf("Bundle: %v", err)
	}
	// 5 queries at cluster size 2: two products of 2 and one singleton left
	// solo (a one-query product answers nothing a plain runner doesn't).
	if len(dec.Groups) != 2 || len(dec.Solo) != 1 {
		t.Fatalf("decision = %+v, want 2 groups and 1 solo", dec)
	}
	verdictsAgree(t, src, planned)
}

// TestPlannedQuerySlots checks a planner-built bundle's slots as built and
// as decoded by UnmarshalBundle and OpenBundle: Query is an untyped nil
// interface at every product-grouped slot — Describe and the benchmark's
// per-kind engines read it that way — and a *query.Compiled at every solo
// one.
func TestPlannedQuerySlots(t *testing.T) {
	planned, dec, err := Bundle(buildBundle(t, 5, 4), Options{})
	if err != nil {
		t.Fatalf("Bundle: %v", err)
	}
	if len(dec.Groups) != 1 || len(dec.Solo) != 1 {
		t.Fatalf("decision = %+v, want one group and one solo query", dec)
	}
	path := filepath.Join(t.TempDir(), "planned.nwq")
	if err := os.WriteFile(path, planned.Marshal(), 0o644); err != nil {
		t.Fatal(err)
	}
	unmarshaled, err := query.UnmarshalBundle(planned.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	opened, err := query.OpenBundle(path)
	if err != nil {
		t.Fatal(err)
	}
	defer opened.Close()
	for name, b := range map[string]*query.Bundle{"planned": planned, "UnmarshalBundle": unmarshaled, "OpenBundle": opened} {
		for _, i := range dec.Groups[0] {
			if q := b.Query(i); q != nil {
				t.Errorf("%s: grouped slot %d holds %#v, want an untyped nil", name, i, q)
			}
		}
		for _, i := range dec.Solo {
			if _, ok := b.Query(i).(*query.Compiled); !ok {
				t.Errorf("%s: solo slot %d holds %T, want *query.Compiled", name, i, b.Query(i))
			}
		}
	}
}

// TestPlannerBudgetFallback is the satellite criterion: a cluster whose
// product exceeds the state budget degrades to per-query fan-out — no
// error, no product group, identical verdicts.
func TestPlannerBudgetFallback(t *testing.T) {
	src := buildBundle(t, 6, 2)
	planned, dec, err := Bundle(src, Options{StateBudget: 2})
	if err != nil {
		t.Fatalf("Bundle: %v", err)
	}
	if len(dec.Groups) != 0 {
		t.Fatalf("budget 2 still produced %d product groups", len(dec.Groups))
	}
	if len(dec.Solo) != src.Len() {
		t.Fatalf("budget 2 left %d of %d queries solo", len(dec.Solo), src.Len())
	}
	if dec.States != 0 {
		t.Fatalf("budget 2 reports %d product states", dec.States)
	}
	if got := len(planned.Groups()); got != 0 {
		t.Fatalf("planned bundle has %d groups, want 0", got)
	}
	for i := 0; i < planned.Len(); i++ {
		if planned.Query(i) == nil {
			t.Fatalf("fallback left query %q without a runner", planned.Name(i))
		}
	}
	verdictsAgree(t, src, planned)
}

func TestPlannerDisabled(t *testing.T) {
	src := buildBundle(t, 4, 0)
	// Negative budget: plan everything as fan-out.
	planned, dec, err := Bundle(src, Options{StateBudget: -1})
	if err != nil {
		t.Fatalf("Bundle: %v", err)
	}
	if len(dec.Groups) != 0 || len(dec.Solo) != 4 {
		t.Fatalf("decision = %+v, want all solo", dec)
	}
	// Cluster size 1: likewise.
	_, dec, err = Bundle(src, Options{ClusterSize: 1})
	if err != nil {
		t.Fatalf("Bundle: %v", err)
	}
	if len(dec.Groups) != 0 || len(dec.Solo) != 4 {
		t.Fatalf("cluster size 1 decision = %+v, want all solo", dec)
	}
	_ = planned
}

// TestPlannerNegativeClusterSize pins the ClusterSize contract below zero:
// like 1, every value below 2 disables clustering, so every query is served
// solo, in bundle order, with verdicts unchanged.
func TestPlannerNegativeClusterSize(t *testing.T) {
	src := buildBundle(t, 4, 1)
	for _, size := range []int{-1, math.MinInt} {
		planned, dec, err := Bundle(src, Options{ClusterSize: size})
		if err != nil {
			t.Fatalf("cluster size %d: Bundle: %v", size, err)
		}
		if len(dec.Groups) != 0 || len(dec.Solo) != src.Len() || dec.States != 0 {
			t.Fatalf("cluster size %d: decision = %+v, want all %d solo", size, dec, src.Len())
		}
		if got := len(planned.Groups()); got != 0 {
			t.Fatalf("cluster size %d: planned bundle has %d groups, want 0", size, got)
		}
		verdictsAgree(t, src, planned)
	}
}

func TestPlannerRejectsPlannedInput(t *testing.T) {
	src := buildBundle(t, 4, 0)
	planned, _, err := Bundle(src, Options{})
	if err != nil {
		t.Fatalf("Bundle: %v", err)
	}
	if _, _, err := Bundle(planned, Options{}); err == nil {
		t.Fatal("planning an already-planned bundle did not fail")
	}
}
