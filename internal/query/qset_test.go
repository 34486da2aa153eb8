package query

import (
	"bytes"
	"encoding/binary"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/alphabet"
	"repro/internal/nwa"
	"repro/internal/query/format"
)

// updateGolden rewrites the committed fixtures under testdata/ from the
// current encoder: go test ./internal/query -run TestGoldenFixtures -update
var updateGolden = flag.Bool("update", false, "rewrite the golden fixtures under testdata/")

// goldenAlphabet is the fixtures' shared two-symbol alphabet.
func goldenAlphabet() *alphabet.Alphabet { return alphabet.New("a", "b") }

// goldenNNWA builds the fixtures' nondeterministic automaton.  Every
// (state, symbol) adjacency bucket holds at most one transition, so the
// compiled CSR layout — and therefore the marshaled bytes — are identical
// on every run and Go version, which is what lets the fixture bytes be
// committed.
func goldenNNWA() *nwa.NNWA {
	a := nwa.NewNNWA(goldenAlphabet(), 4)
	a.AddStart(0)
	a.AddStart(2)
	a.AddAccept(3)
	a.AddInternal(0, "a", 1)
	a.AddInternal(1, "b", 2)
	a.AddInternal(2, "a", 3)
	a.AddCall(0, "a", 1, 2)
	a.AddCall(2, "b", 3, 0)
	a.AddReturn(1, 2, "a", 3)
	a.AddReturn(3, 0, "b", 3)
	a.AddReturn(0, 0, "a", 1)
	return a
}

// goldenBundle builds the fixtures' three-query bundle: two deterministic
// queries and the nondeterministic automaton over one shared alphabet.
func goldenBundle(t *testing.T) *Bundle {
	t.Helper()
	alpha := goldenAlphabet()
	b := NewBundle(alpha)
	for _, add := range []struct {
		name string
		q    Query
	}{
		{"well-formed", Compile(WellFormed(alpha))},
		{"//a//b", Compile(PathQuery(alpha, "a", "b"))},
		{"nondet", CompileN(goldenNNWA())},
	} {
		if err := b.Add(add.name, add.q); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

// goldenPlannedBundle builds the planned fixture: a two-member product of
// linear-order queries, whose return table is compacted to 2 hierarchical
// columns for its 7 states, next to the nondeterministic automaton served
// solo.
func goldenPlannedBundle(t testing.TB) *Bundle {
	t.Helper()
	alpha := goldenAlphabet()
	src := NewBundle(alpha)
	for _, add := range []struct {
		name string
		q    Query
	}{
		{"a before b", Compile(LinearOrder(alpha, "a", "b"))},
		{"b before a", Compile(LinearOrder(alpha, "b", "a"))},
		{"nondet", CompileN(goldenNNWA())},
	} {
		if err := src.Add(add.name, add.q); err != nil {
			t.Fatal(err)
		}
	}
	p, err := CompileProduct([]Query{src.Query(0), src.Query(1)}, 0)
	if err != nil {
		t.Fatal(err)
	}
	planned, err := NewPlannedBundle(src, [][]int{{0, 1}}, []*CompiledProduct{p})
	if err != nil {
		t.Fatal(err)
	}
	return planned
}

// checkQueryAgreement replays random words (with pending calls/returns and
// out-of-alphabet labels) through both queries and fails on any verdict
// divergence.
func checkQueryAgreement(t *testing.T, label string, want, got Query, trials int) {
	t.Helper()
	rng := rand.New(rand.NewSource(777))
	words, pending := randomWords(rng, trials, []string{"a", "b", "x"})
	if pending == 0 {
		t.Fatal("no words with pending calls/returns were generated")
	}
	alpha := want.Alphabet()
	wr, gr := want.NewRunner(), got.NewRunner()
	for wi, w := range words {
		if wv, gv := RunWord(wr, alpha, w), RunWord(gr, alpha, w); wv != gv {
			t.Fatalf("%s: word %d: original %v, decoded %v on %v", label, wi, wv, gv, w)
		}
	}
}

// TestMarshalRoundTripCompiled round-trips compiled DNWAs — dense and
// sparse return forms — through Marshal/UnmarshalCompiled and the
// zero-copy LoadQueryMapped path, checking byte-identical re-encoding and
// verdict agreement.
func TestMarshalRoundTripCompiled(t *testing.T) {
	alpha := goldenAlphabet()
	defer func(old int) { denseReturnLimit = old }(denseReturnLimit)
	for _, limit := range []int{denseReturnLimit, 1} {
		denseReturnLimit = limit
		for _, d := range []*nwa.DNWA{
			WellFormed(alpha),
			PathQuery(alpha, "a", "b"),
			LinearOrder(alpha, "a", "b", "a"),
		} {
			c := Compile(d)
			data := c.Marshal()
			dec, err := UnmarshalCompiled(data)
			if err != nil {
				t.Fatalf("UnmarshalCompiled (dense=%v): %v", c.Dense(), err)
			}
			if dec.Dense() != c.Dense() || dec.NumStates() != c.NumStates() {
				t.Fatalf("decoded shape %v/%d, want %v/%d", dec.Dense(), dec.NumStates(), c.Dense(), c.NumStates())
			}
			if !dec.Alphabet().Equal(alpha) {
				t.Fatalf("decoded alphabet %v, want %v", dec.Alphabet(), alpha)
			}
			if again := dec.Marshal(); !bytes.Equal(again, data) {
				t.Fatalf("decode→re-encode changed the bytes (dense=%v): %d vs %d", c.Dense(), len(again), len(data))
			}
			checkQueryAgreement(t, "copied", c, dec, 200)

			mapped, err := LoadQueryMapped(data)
			if err != nil {
				t.Fatalf("LoadQueryMapped: %v", err)
			}
			checkQueryAgreement(t, "mapped", c, mapped, 200)
		}
	}
}

// TestMarshalRoundTripCompiledN does the same for compiled NNWAs, over
// random automata in both return forms.
func TestMarshalRoundTripCompiledN(t *testing.T) {
	rng := rand.New(rand.NewSource(555))
	defer func(old int) { denseReturnLimit = old }(denseReturnLimit)
	for _, limit := range []int{denseReturnLimit, 1} {
		denseReturnLimit = limit
		for trial := 0; trial < 6; trial++ {
			c := CompileN(randomNNWA(rng, 2+rng.Intn(6)))
			data := c.Marshal()
			dec, err := UnmarshalCompiledN(data)
			if err != nil {
				t.Fatalf("UnmarshalCompiledN (dense=%v): %v", c.Dense(), err)
			}
			if again := dec.Marshal(); !bytes.Equal(again, data) {
				t.Fatalf("decode→re-encode changed the bytes (dense=%v)", c.Dense())
			}
			checkQueryAgreement(t, "copied", c, dec, 120)

			mapped, err := LoadQueryMapped(data)
			if err != nil {
				t.Fatalf("LoadQueryMapped: %v", err)
			}
			checkQueryAgreement(t, "mapped", c, mapped, 120)
			// The mapped runner's reference oracle must agree too.
			mc := mapped.(*CompiledN)
			checkQueryAgreement(t, "mapped reference runner", c, referenceQuery{mc}, 60)
		}
	}
}

// referenceQuery adapts a CompiledN so checkQueryAgreement exercises the
// []bool matrix runner of a decoded automaton.
type referenceQuery struct{ c *CompiledN }

func (r referenceQuery) Alphabet() *alphabet.Alphabet { return r.c.Alphabet() }
func (r referenceQuery) NewRunner() Runner            { return r.c.NewReferenceRunner() }

// TestBundleRoundTrip round-trips a mixed bundle through Marshal and both
// load paths, and checks the bundle-level invariants.
func TestBundleRoundTrip(t *testing.T) {
	b := goldenBundle(t)
	data := b.Marshal()

	for _, load := range []struct {
		name string
		fn   func([]byte) (*Bundle, error)
	}{
		{"UnmarshalBundle", UnmarshalBundle},
		{"LoadBundleMapped", LoadBundleMapped},
	} {
		dec, err := load.fn(data)
		if err != nil {
			t.Fatalf("%s: %v", load.name, err)
		}
		if dec.Len() != b.Len() {
			t.Fatalf("%s: %d queries, want %d", load.name, dec.Len(), b.Len())
		}
		for i, name := range b.Names() {
			if dec.Name(i) != name {
				t.Fatalf("%s: query %d named %q, want %q", load.name, i, dec.Name(i), name)
			}
			checkQueryAgreement(t, load.name+" "+name, b.Query(i), dec.Query(i), 120)
		}
		if !dec.Alphabet().Equal(b.Alphabet()) {
			t.Fatalf("%s: alphabet %v, want %v", load.name, dec.Alphabet(), b.Alphabet())
		}
		if again := rebuildBundle(t, dec).Marshal(); !bytes.Equal(again, data) {
			t.Fatalf("%s: decode→re-encode changed the bytes", load.name)
		}
	}
}

// rebuildBundle re-wraps a decoded bundle's queries so Marshal re-encodes
// them (decoded bundles are directly marshalable too; this guards the Add
// path at the same time).
func rebuildBundle(t *testing.T, b *Bundle) *Bundle {
	t.Helper()
	out := NewBundle(b.Alphabet())
	for i, name := range b.Names() {
		if err := out.Add(name, b.Query(i)); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestBundleAddErrors pins the bundle construction invariants: duplicate
// names, alphabet mismatches, and unserializable query implementations are
// rejected.
func TestBundleAddErrors(t *testing.T) {
	alpha := goldenAlphabet()
	b := NewBundle(alpha)
	if err := b.Add("q", Compile(WellFormed(alpha))); err != nil {
		t.Fatal(err)
	}
	if err := b.Add("q", Compile(WellFormed(alpha))); err == nil {
		t.Error("duplicate name accepted")
	}
	other := alphabet.New("x", "y")
	if err := b.Add("mismatch", Compile(WellFormed(other))); err == nil {
		t.Error("alphabet mismatch accepted")
	}
	if err := b.Add("alien", referenceQuery{CompileN(goldenNNWA())}); err == nil {
		t.Error("unserializable query implementation accepted")
	}
}

// TestOpenBundle exercises the mmap-backed file path end to end.
func TestOpenBundle(t *testing.T) {
	b := goldenBundle(t)
	path := filepath.Join(t.TempDir(), "queries.nwq")
	if err := os.WriteFile(path, b.Marshal(), 0o644); err != nil {
		t.Fatal(err)
	}
	dec, err := OpenBundle(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range b.Names() {
		checkQueryAgreement(t, "mmap "+name, b.Query(i), dec.Query(i), 120)
	}
	if err := dec.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := dec.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := OpenBundle(filepath.Join(t.TempDir(), "missing.nwq")); err == nil {
		t.Error("OpenBundle on a missing file succeeded")
	}
}

// TestUnmarshalErrors feeds truncations and targeted corruptions of a valid
// marshal to the decoders: every one must fail with an error (never a
// panic), and a valid prefix must never silently decode.
func TestUnmarshalErrors(t *testing.T) {
	c := Compile(PathQuery(goldenAlphabet(), "a", "b"))
	data := c.Marshal()
	for i := 0; i < len(data); i += 7 {
		if _, err := UnmarshalQuery(data[:i]); err == nil {
			t.Fatalf("truncation to %d bytes decoded successfully", i)
		}
	}
	corrupt := func(mutate func([]byte)) []byte {
		b := append([]byte(nil), data...)
		mutate(b)
		return b
	}
	cases := map[string][]byte{
		"bad magic":   corrupt(func(b []byte) { b[0] = 'X' }),
		"bad version": corrupt(func(b []byte) { b[4] = 99 }),
		"bad kind":    corrupt(func(b []byte) { b[8] = 77 }),
	}
	for name, b := range cases {
		if _, err := UnmarshalQuery(b); err == nil {
			t.Errorf("%s decoded successfully", name)
		}
	}
	// A bundle decoder must reject a non-bundle container and vice versa.
	if _, err := UnmarshalBundle(data); err == nil {
		t.Error("UnmarshalBundle accepted a bare query container")
	}
	if _, err := UnmarshalQuery(goldenBundle(t).Marshal()); err == nil {
		t.Error("UnmarshalQuery accepted a bundle container")
	}
	if _, err := UnmarshalCompiledN(data); err == nil {
		t.Error("UnmarshalCompiledN accepted a DNWA container")
	}
	if _, err := UnmarshalCompiled(CompileN(goldenNNWA()).Marshal()); err == nil {
		t.Error("UnmarshalCompiled accepted an NNWA container")
	}
	// A bundle's shared alphabet goes through the same reader as a
	// standalone query's, duplicate check included.
	w := format.NewWriter(format.KindBundle)
	w.Strings(secAlphabet, []string{"a", "b", "a"})
	w.Strings(secNames, nil)
	if _, err := UnmarshalBundle(w.Finish()); err == nil || !strings.Contains(err.Error(), "repeats a symbol") {
		t.Errorf("bundle with a repeated alphabet symbol: got %v, want a repeats-a-symbol error", err)
	}
}

// TestGoldenFixtures round-trips the committed fixtures: each must decode,
// re-encode byte-identically (the format cannot drift silently), and agree
// with a freshly built copy of the same object on random words.  Run with
// -update to regenerate the fixtures after a deliberate format change —
// which must also bump the format version (see format.Version1/VersionHashed
// and the byte-level reference in docs/FORMAT.md).
func TestGoldenFixtures(t *testing.T) {
	fixtures := []struct {
		file   string
		build  func() []byte
		verify func(t *testing.T, data []byte)
	}{
		{
			file:  "golden_dnwa.nwq",
			build: func() []byte { return Compile(PathQuery(goldenAlphabet(), "a", "b")).Marshal() },
			verify: func(t *testing.T, data []byte) {
				dec, err := UnmarshalCompiled(data)
				if err != nil {
					t.Fatal(err)
				}
				if again := dec.Marshal(); !bytes.Equal(again, data) {
					t.Fatal("golden DNWA re-encodes differently")
				}
				checkQueryAgreement(t, "golden dnwa", Compile(PathQuery(goldenAlphabet(), "a", "b")), dec, 200)
			},
		},
		{
			file:  "golden_nnwa.nwq",
			build: func() []byte { return CompileN(goldenNNWA()).Marshal() },
			verify: func(t *testing.T, data []byte) {
				dec, err := UnmarshalCompiledN(data)
				if err != nil {
					t.Fatal(err)
				}
				if again := dec.Marshal(); !bytes.Equal(again, data) {
					t.Fatal("golden NNWA re-encodes differently")
				}
				checkQueryAgreement(t, "golden nnwa", CompileN(goldenNNWA()), dec, 200)
			},
		},
		{
			file:  "golden_bundle.nwq",
			build: func() []byte { return goldenBundle(t).Marshal() },
			verify: func(t *testing.T, data []byte) {
				dec, err := UnmarshalBundle(data)
				if err != nil {
					t.Fatal(err)
				}
				if again := rebuildBundle(t, dec).Marshal(); !bytes.Equal(again, data) {
					t.Fatal("golden bundle re-encodes differently")
				}
				fresh := goldenBundle(t)
				for i, name := range fresh.Names() {
					checkQueryAgreement(t, "golden bundle "+name, fresh.Query(i), dec.Query(i), 120)
				}
			},
		},
		{
			file:  "golden_planned.nwq",
			build: func() []byte { return goldenPlannedBundle(t).Marshal() },
			verify: func(t *testing.T, data []byte) {
				dec, err := UnmarshalBundle(data)
				if err != nil {
					t.Fatal(err)
				}
				if again := dec.Marshal(); !bytes.Equal(again, data) {
					t.Fatal("golden planned bundle re-encodes differently")
				}
				fresh := goldenPlannedBundle(t)
				if len(dec.Groups()) != 1 {
					t.Fatalf("golden planned bundle has %d groups, want 1", len(dec.Groups()))
				}
				inner := dec.Groups()[0].Product.inner
				if inner.hiers != 2 || inner.num != 7 {
					t.Fatalf("golden product has H=%d of %d states, want 2 of 7", inner.hiers, inner.num)
				}
				members := []Query{Compile(LinearOrder(goldenAlphabet(), "a", "b")), Compile(LinearOrder(goldenAlphabet(), "b", "a"))}
				checkProductAgreement(t, "golden planned product", dec.Groups()[0].Product, members, 120)
				checkQueryAgreement(t, "golden planned solo", fresh.Query(2), dec.Query(2), 120)
			},
		},
	}
	for _, fx := range fixtures {
		t.Run(fx.file, func(t *testing.T) {
			path := filepath.Join("testdata", fx.file)
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, fx.build(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			if v := binary.LittleEndian.Uint32(data[4:]); v != format.VersionHashed {
				t.Fatalf("golden fixture is version %d, want %d", v, format.VersionHashed)
			}
			fx.verify(t, data)
		})
	}
}

// TestGoldenFixturesV1 pins backward compatibility: the committed
// version-1 fixtures (the exact bytes PR 5 shipped, never regenerated)
// must still decode, report themselves unhashed, and — because Marshal
// re-emits the version an object was decoded from — re-encode
// byte-identically.
func TestGoldenFixturesV1(t *testing.T) {
	remarshal := map[string]func(t *testing.T, data []byte) []byte{
		"golden_dnwa_v1.nwq": func(t *testing.T, data []byte) []byte {
			dec, err := UnmarshalCompiled(data)
			if err != nil {
				t.Fatal(err)
			}
			return dec.Marshal()
		},
		"golden_nnwa_v1.nwq": func(t *testing.T, data []byte) []byte {
			dec, err := UnmarshalCompiledN(data)
			if err != nil {
				t.Fatal(err)
			}
			return dec.Marshal()
		},
		"golden_bundle_v1.nwq": func(t *testing.T, data []byte) []byte {
			dec, err := UnmarshalBundle(data)
			if err != nil {
				t.Fatal(err)
			}
			if _, verified, ok := dec.ContentHash(); !ok || verified {
				t.Errorf("v1 bundle ContentHash reports ok=%v verified=%v, want ok unverified", ok, verified)
			}
			return dec.Marshal()
		},
	}
	for file, re := range remarshal {
		t.Run(file, func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join("testdata", file))
			if err != nil {
				t.Fatal(err)
			}
			if v := binary.LittleEndian.Uint32(data[4:]); v != format.Version1 {
				t.Fatalf("fixture is version %d, want %d", v, format.Version1)
			}
			if again := re(t, data); !bytes.Equal(again, data) {
				t.Fatal("v1 fixture re-encodes differently")
			}
		})
	}
}
