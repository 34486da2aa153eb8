package queryset

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/docstream"
	"repro/internal/engine"
	"repro/internal/generator"
	"repro/internal/nestedword"
	"repro/internal/query"
	"repro/internal/query/plan"
)

// parse registers the query-set flags on a fresh flag set and parses args.
func parse(t *testing.T, args ...string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Register(fs, Usage{Labels: "labels", DSL: "dsl", Queryset: "queryset"})
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f
}

// verdicts runs every document through an engine booted from b.
func verdicts(t *testing.T, b *query.Bundle, docs []string) [][]bool {
	t.Helper()
	eng := engine.New()
	if _, err := eng.RegisterBundle(b); err != nil {
		t.Fatal(err)
	}
	out := make([][]bool, len(docs))
	for i, doc := range docs {
		res, err := eng.RunReader(strings.NewReader(doc))
		if err != nil {
			t.Fatalf("document %d: %v", i, err)
		}
		out[i] = res.Verdicts
	}
	return out
}

// TestCompiledMatchesInMemory is the builder's differential: the same flags
// built in memory (the nwquery/nwserve path) and built, optionally planned,
// marshalled and decoded again (the nwtool compile → -queryset path) give
// the same names and identical verdicts on generated documents.
func TestCompiledMatchesInMemory(t *testing.T) {
	f := parse(t, "-labels", "a,b,c", "-order", "a, c", "-path", "a,b",
		"-dsl", "within a: b before c; contains c; no b after c")
	mem, err := f.Build(nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"well-formed", "order a,c", "path //a//b", "within a: b before c", "contains c", "no b after c"}
	if !slices.Equal(mem.Names(), want) {
		t.Fatalf("names %q, want %q", mem.Names(), want)
	}

	rng := rand.New(rand.NewSource(15))
	labels := []string{"a", "b", "c", "d"} // d is out of the alphabet
	var docs []string
	for i := 0; i < 300; i++ {
		n := generator.RandomDocument(rng, 1+rng.Intn(60), 6, labels)
		docs = append(docs, docstream.Render(n))
	}
	ref := verdicts(t, mem, docs)
	for q, name := range want {
		seen := map[bool]bool{}
		for d := range docs {
			seen[ref[d][q]] = true
		}
		if len(seen) != 2 {
			t.Fatalf("query %q answers %v on every document; the corpus does not tell verdicts apart", name, ref[0][q])
		}
	}

	planned, _, err := plan.Bundle(mem, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(planned.Groups()) == 0 {
		t.Fatal("planner produced no product groups; the planned path is untested")
	}
	for name, b := range map[string]*query.Bundle{"compiled": mem, "planned": planned} {
		loaded, err := query.UnmarshalBundle(b.Marshal())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !slices.Equal(loaded.Names(), mem.Names()) {
			t.Fatalf("%s: names %q, in memory %q", name, loaded.Names(), mem.Names())
		}
		got := verdicts(t, loaded, docs)
		for d := range docs {
			if !slices.Equal(got[d], ref[d]) {
				t.Fatalf("%s, document %q: verdicts %v, in memory %v", name, docs[d], got[d], ref[d])
			}
		}
	}
}

// TestDiscovery checks that discovered labels join the alphabet after the
// flag labels, and only when -labels is empty.
func TestDiscovery(t *testing.T) {
	discover := func() ([]string, error) { return []string{"x", "a", "y"}, nil }
	b, err := parse(t, "-path", "a,b").Build(discover)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Alphabet().Symbols(); !slices.Equal(got, []string{"a", "b", "x", "y"}) {
		t.Fatalf("alphabet %v, want [a b x y]", got)
	}
	b, err = parse(t, "-labels", "a", "-path", "a,b").Build(discover)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Alphabet().Symbols(); !slices.Equal(got, []string{"a", "b"}) {
		t.Fatalf("alphabet with -labels %v, want [a b]", got)
	}
	if _, err := parse(t).Build(func() ([]string, error) { return nil, fmt.Errorf("boom") }); err == nil || err.Error() != "boom" {
		t.Fatalf("discovery error not returned: %v", err)
	}
}

// TestQuerysetFlag checks that -queryset opens the serialized bundle as-is
// and refuses to be combined with the compile flags.
func TestQuerysetFlag(t *testing.T) {
	mem, err := parse(t, "-labels", "a,b", "-path", "a,b").Build(nil)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "q.nwq")
	if err := os.WriteFile(path, mem.Marshal(), 0o644); err != nil {
		t.Fatal(err)
	}
	b, err := parse(t, "-queryset", path).Build(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if !slices.Equal(b.Names(), mem.Names()) || !b.Alphabet().Equal(mem.Alphabet()) {
		t.Fatalf("opened bundle %q over %v, compiled %q over %v", b.Names(), b.Alphabet(), mem.Names(), mem.Alphabet())
	}
	for _, flagName := range []string{"-labels", "-order", "-path", "-dsl"} {
		_, err := parse(t, "-queryset", path, flagName, "a").Build(nil)
		if err == nil || !strings.Contains(err.Error(), "drop -labels/-order/-path/-dsl") {
			t.Errorf("-queryset with %s: %v", flagName, err)
		}
	}
}

// TestDrain checks the buffered decode: the native format yields the
// document's events, uninterned, labels come back deduplicated in
// first-seen order, and an unknown format fails.
func TestDrain(t *testing.T) {
	const doc = "<a> <b> x y x </b> <c> </c> </a>"
	events, err := Drain("", strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	ev := func(kind nestedword.Kind, label string) docstream.Event {
		return docstream.Event{Kind: kind, Label: label}
	}
	want := []docstream.Event{
		ev(nestedword.Call, "a"), ev(nestedword.Call, "b"),
		ev(nestedword.Internal, "x"), ev(nestedword.Internal, "y"), ev(nestedword.Internal, "x"),
		ev(nestedword.Return, "b"), ev(nestedword.Call, "c"), ev(nestedword.Return, "c"), ev(nestedword.Return, "a"),
	}
	if !slices.Equal(events, want) {
		t.Fatalf("Drain %v, want %v", events, want)
	}
	if got := Labels(events); !slices.Equal(got, []string{"a", "b", "x", "y", "c"}) {
		t.Fatalf("Labels %v", got)
	}
	if _, err := Drain("yaml", strings.NewReader(doc)); err == nil {
		t.Fatal("Drain(yaml): want an error")
	}
}
