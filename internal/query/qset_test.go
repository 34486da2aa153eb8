package query

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
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

// goldenBundle builds the fixtures' three-query bundle over one shared
// alphabet.
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
		{"//b//a", Compile(PathQuery(alpha, "b", "a"))},
	} {
		if err := b.Add(add.name, add.q); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

// goldenPlannedBundle builds the planned fixture: a two-member product of
// linear-order queries, whose return table is compacted to 2 hierarchical
// columns for its 7 states, next to a well-formedness query served solo.
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
		{"well-formed", Compile(WellFormed(alpha))},
	} {
		if err := src.Add(add.name, add.q); err != nil {
			t.Fatal(err)
		}
	}
	p, err := CompileProduct([]*Compiled{src.Compiled(0), src.Compiled(1)}, 0)
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

// TestMarshalRoundTripCompiled round-trips compiled DNWAs through
// Marshal/DecodeQuery and the zero-copy decoder, checking
// byte-identical re-encoding and verdict agreement.
func TestMarshalRoundTripCompiled(t *testing.T) {
	alpha := goldenAlphabet()
	for _, d := range []*nwa.DNWA{
		WellFormed(alpha),
		PathQuery(alpha, "a", "b"),
		LinearOrder(alpha, "a", "b", "a"),
	} {
		c := Compile(d)
		data := c.marshal()
		dec, err := DecodeQuery(data, false)
		if err != nil {
			t.Fatalf("DecodeQuery: %v", err)
		}
		if dec.numStates() != c.numStates() || dec.hiers != c.hiers || !slices.Equal(dec.rowID, c.rowID) || !slices.Equal(dec.rows, c.rows) {
			t.Fatalf("decoded %d states, H=%d and %d rows, want %d, %d and %d",
				dec.numStates(), dec.hiers, len(dec.rows)/dec.syms, c.numStates(), c.hiers, len(c.rows)/c.syms)
		}
		if !dec.Alphabet().Equal(alpha) {
			t.Fatalf("decoded alphabet %v, want %v", dec.Alphabet(), alpha)
		}
		if again := dec.marshal(); !bytes.Equal(again, data) {
			t.Fatalf("decode→re-encode changed the bytes: %d vs %d", len(again), len(data))
		}
		checkQueryAgreement(t, "copied", c, dec, 200)

		mapped, err := DecodeQuery(data, true)
		if err != nil {
			t.Fatalf("zero-copy decode: %v", err)
		}
		checkQueryAgreement(t, "mapped", c, mapped, 200)
	}
}

// TestMarshalIgnoresSourceVersion pins that Marshal is a function of the
// tables alone: a DNWA and a product decoded from version-1 containers —
// the version every embedded blob keeps — re-marshal at VersionHashed,
// byte-identical to the freshly built object's Marshal.  (A version-1
// bundle is no artifact at all: TestUnhashedContainersRefused.)
func TestMarshalIgnoresSourceVersion(t *testing.T) {
	c := Compile(PathQuery(goldenAlphabet(), "a", "b"))
	dec, err := DecodeQuery(c.encode(true, format.Version1), false)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec.marshal(), c.marshal()) {
		t.Error("DNWA decoded from version 1 marshals differently from the compiled one")
	}

	p := goldenPlannedBundle(t).Groups()[0].Product
	decP, err := unmarshalProduct(p.encode(true, nil, format.Version1))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(decP.Marshal(), p.Marshal()) {
		t.Error("product decoded from version 1 marshals differently from the compiled one")
	}
}

// writeBundle writes a bundle container at the given header version, section
// for section as Bundle.Marshal writes an unplanned bundle: the alphabet, the
// names, then the embedded query blobs as given.
func writeBundle(version uint32, symbols, names []string, blobs ...[]byte) []byte {
	w := format.NewWriter(format.KindBundle)
	w.SetVersion(version)
	w.Strings(secAlphabet, symbols)
	w.Strings(secNames, names)
	for _, blob := range blobs {
		w.Bytes(secQuery, blob)
	}
	return w.Finish()
}

// TestUnhashedContainersRefused pins the one-artifact contract at every
// top-level entry: the golden bundle's exact sections under a version-1
// header — which at VersionHashed are byte for byte what Marshal writes —
// must be refused with format.ErrUnhashed by the bundle decoders, the
// verifier, the content hash and the signer.
func TestUnhashedContainersRefused(t *testing.T) {
	b := goldenBundle(t)
	var blobs [][]byte
	for _, q := range b.queries {
		blobs = append(blobs, q.encode(false, format.Version1))
	}
	if hashed := writeBundle(format.VersionHashed, b.alpha.Symbols(), b.names, blobs...); !bytes.Equal(hashed, b.Marshal()) {
		t.Fatal("the golden bundle's sections at VersionHashed differ from its Marshal")
	}
	v1 := writeBundle(format.Version1, b.alpha.Symbols(), b.names, blobs...)
	path := filepath.Join(t.TempDir(), "v1.nwq")
	if err := os.WriteFile(path, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	privFile, pub, err := format.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	priv, err := format.ParsePrivateKey(privFile)
	if err != nil {
		t.Fatal(err)
	}
	sig, err := format.Sign(priv, b.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	errs := map[string]error{}
	_, errs["UnmarshalBundle"] = UnmarshalBundle(v1)
	_, errs["OpenBundle"] = OpenBundle(path)
	_, errs["mapped bundle"] = decodeBundle(v1, true)
	_, errs["VetBytes"] = VetBytes(v1)
	_, errs["format.ContentHash"] = format.ContentHash(v1)
	_, errs["format.Sign"] = format.Sign(priv, v1)
	errs["format.Verify"] = format.Verify(pub, sig, v1)
	for entry, err := range errs {
		if !errors.Is(err, format.ErrUnhashed) {
			t.Errorf("%s: got %v, want format.ErrUnhashed", entry, err)
		}
	}
}

// TestBundleRoundTrip round-trips a bundle through Marshal and both
// load paths, and checks the bundle-level invariants.
func TestBundleRoundTrip(t *testing.T) {
	b := goldenBundle(t)
	data := b.Marshal()

	for _, load := range []struct {
		name string
		fn   func([]byte) (*Bundle, error)
	}{
		{"UnmarshalBundle", UnmarshalBundle},
		{"mapped", func(data []byte) (*Bundle, error) { return decodeBundle(data, true) }},
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
// names, alphabet mismatches, and unserializable query implementations —
// a CompiledN among them — are rejected.
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
	if err := b.Add("nondet", CompileN(WellFormed(alpha).ToNondeterministic())); err == nil {
		t.Error("compiled NNWA accepted")
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
	data := c.marshal()
	for i := 0; i < len(data); i += 7 {
		if _, err := DecodeQuery(data[:i], false); err == nil {
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
		if _, err := DecodeQuery(b, false); err == nil {
			t.Errorf("%s decoded successfully", name)
		}
	}
	// A bundle decoder must reject a non-bundle container and vice versa.
	if _, err := UnmarshalBundle(data); err == nil {
		t.Error("UnmarshalBundle accepted a bare query container")
	}
	if _, err := DecodeQuery(goldenBundle(t).Marshal(), false); err == nil {
		t.Error("DecodeQuery accepted a bundle container")
	}
	// A bundle's shared alphabet goes through the same reader as a
	// standalone query's, duplicate check included.
	repeated := writeBundle(format.VersionHashed, []string{"a", "b", "a"}, nil)
	if _, err := UnmarshalBundle(repeated); err == nil || !strings.Contains(err.Error(), "repeats a symbol") {
		t.Errorf("bundle with a repeated alphabet symbol: got %v, want a repeats-a-symbol error", err)
	}
}

// TestGoldenFixtures round-trips the committed fixtures: each served one
// must decode, re-encode byte-identically (the format cannot drift
// silently), and agree with a freshly built copy of the same object on
// random words; each must also equal what its build function builds today.
// Run with -update to regenerate them after a deliberate format change —
// which must also bump the format version (see format.Version1/VersionHashed
// and the byte-level reference in docs/FORMAT.md).  The rest are rejection
// fixtures, never regenerated: golden_dnwa.nwq, golden_bundle.nwq and
// golden_planned.nwq hold return tables written before the factored layout
// and fail with ErrLegacyLayout; golden_nnwa.nwq holds a compiled NNWA and
// fails with ErrNNWANotServed.
func TestGoldenFixtures(t *testing.T) {
	rejectQuery := func(want error) func(t *testing.T, data []byte) {
		return func(t *testing.T, data []byte) {
			if _, err := DecodeQuery(data, false); !errors.Is(err, want) {
				t.Fatalf("decoded with %v, want %v", err, want)
			}
		}
	}
	rejectBundle := func(t *testing.T, data []byte) {
		if _, err := UnmarshalBundle(data); !errors.Is(err, ErrLegacyLayout) {
			t.Fatalf("decoded with %v, want ErrLegacyLayout", err)
		}
	}
	orderMembers := func() []*Compiled {
		alpha := goldenAlphabet()
		return []*Compiled{Compile(LinearOrder(alpha, "a", "b")), Compile(LinearOrder(alpha, "b", "a"))}
	}
	fixtures := []struct {
		file   string
		build  func() []byte
		verify func(t *testing.T, data []byte)
	}{
		{file: "golden_dnwa.nwq", verify: rejectQuery(ErrLegacyLayout)},
		{file: "golden_nnwa.nwq", verify: rejectQuery(ErrNNWANotServed)},
		{file: "golden_bundle.nwq", verify: rejectBundle},
		{file: "golden_planned.nwq", verify: rejectBundle},
		{
			file:  "golden_dnwa_factored.nwq",
			build: func() []byte { return Compile(PathQuery(goldenAlphabet(), "a", "b")).marshal() },
			verify: func(t *testing.T, data []byte) {
				dec, err := DecodeQuery(data, false)
				if err != nil {
					t.Fatal(err)
				}
				if dec.hiers >= dec.num {
					t.Fatalf("golden factored DNWA decoded with H=%d of %d states", dec.hiers, dec.num)
				}
				if again := dec.marshal(); !bytes.Equal(again, data) {
					t.Fatal("golden factored DNWA re-encodes differently")
				}
				checkQueryAgreement(t, "golden factored dnwa", Compile(PathQuery(goldenAlphabet(), "a", "b")), dec, 200)
			},
		},
		{
			file:  "golden_bundle_factored.nwq",
			build: func() []byte { return goldenBundle(t).Marshal() },
			verify: func(t *testing.T, data []byte) {
				dec, err := UnmarshalBundle(data)
				if err != nil {
					t.Fatal(err)
				}
				if len(dec.Groups()) != 0 {
					t.Fatalf("golden factored bundle has %d groups, want none", len(dec.Groups()))
				}
				if again := rebuildBundle(t, dec).Marshal(); !bytes.Equal(again, data) {
					t.Fatal("golden factored bundle re-encodes differently")
				}
				fresh := goldenBundle(t)
				for i, name := range fresh.Names() {
					checkQueryAgreement(t, "golden factored bundle "+name, fresh.Query(i), dec.Query(i), 120)
				}
			},
		},
		{
			file:  "golden_planned_factored.nwq",
			build: func() []byte { return goldenPlannedBundle(t).Marshal() },
			verify: func(t *testing.T, data []byte) {
				dec, err := UnmarshalBundle(data)
				if err != nil {
					t.Fatal(err)
				}
				if again := dec.Marshal(); !bytes.Equal(again, data) {
					t.Fatal("golden factored planned bundle re-encodes differently")
				}
				if len(dec.Groups()) != 1 {
					t.Fatalf("golden factored planned bundle has %d groups, want 1", len(dec.Groups()))
				}
				if inner := dec.Groups()[0].Product.inner; inner.hiers != 2 || inner.num != 7 {
					t.Fatalf("golden product has H=%d of %d states, want 2 of 7", inner.hiers, inner.num)
				}
				checkProductAgreement(t, "golden factored planned product", dec.Groups()[0].Product, orderMembers(), 120)
				checkQueryAgreement(t, "golden factored planned solo", goldenPlannedBundle(t).Query(2), dec.Query(2), 120)
			},
		},
	}
	for _, fx := range fixtures {
		t.Run(fx.file, func(t *testing.T) {
			path := filepath.Join("testdata", fx.file)
			if *updateGolden && fx.build != nil {
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
			if fx.build != nil && !bytes.Equal(fx.build(), data) {
				t.Fatal("a fresh build encodes differently from the committed fixture")
			}
			fx.verify(t, data)
		})
	}
}

// TestGoldenFixturesV1 pins the committed version-1 fixtures, all of them
// rejection fixtures now: the DNWA holds a return table written before the
// factored layout and fails with ErrLegacyLayout, the NNWA with
// ErrNNWANotServed, and the bundle, unhashed, is no top-level artifact and
// fails with format.ErrUnhashed.  A version-1 query container in the
// factored layout still decodes (TestMarshalIgnoresSourceVersion), as
// every blob embedded in a bundle does.
func TestGoldenFixturesV1(t *testing.T) {
	for file, decode := range map[string]func(data []byte) error{
		"golden_dnwa_v1.nwq": func(data []byte) error {
			_, err := DecodeQuery(data, false)
			if !errors.Is(err, ErrLegacyLayout) {
				return fmt.Errorf("decoded with %v, want ErrLegacyLayout", err)
			}
			return nil
		},
		"golden_nnwa_v1.nwq": func(data []byte) error {
			_, err := DecodeQuery(data, false)
			if !errors.Is(err, ErrNNWANotServed) {
				return fmt.Errorf("decoded with %v, want ErrNNWANotServed", err)
			}
			return nil
		},
		"golden_bundle_v1.nwq": func(data []byte) error {
			_, err := UnmarshalBundle(data)
			if !errors.Is(err, format.ErrUnhashed) {
				return fmt.Errorf("decoded with %v, want format.ErrUnhashed", err)
			}
			return nil
		},
	} {
		t.Run(file, func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join("testdata", file))
			if err != nil {
				t.Fatal(err)
			}
			if v := binary.LittleEndian.Uint32(data[4:]); v != format.Version1 {
				t.Fatalf("fixture is version %d, want %d", v, format.Version1)
			}
			if err := decode(data); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestLegacyLayoutsRejected feeds return tables written before the factored
// layout — the committed legacy fixtures, and planned bundles whose product
// carries a dense or sparse table — to every decode entry: standalone,
// product- and bundle-embedded, copied and mapped, and VetBytes.  Each must
// fail with ErrLegacyLayout, except the unhashed version-1 bundle, which
// every bundle entry refuses on its header with format.ErrUnhashed first.
func TestLegacyLayoutsRejected(t *testing.T) {
	queries := goldenFiles(t, "golden_dnwa.nwq", "golden_dnwa_v1.nwq")
	planned := goldenPlannedBundle(t)
	p := planned.Groups()[0].Product
	products := [][]byte{
		legacyEncodeProduct(p, false, true, nil, format.VersionHashed),
		legacyEncodeProduct(p, true, true, nil, format.VersionHashed),
	}
	bundles := append(goldenFiles(t, "golden_bundle.nwq", "golden_planned.nwq"),
		legacyMarshalPlanned(planned, false), legacyMarshalPlanned(planned, true))
	errs := map[string]error{}
	for i, data := range queries {
		_, errs[fmt.Sprint("DecodeQuery ", i)] = DecodeQuery(data, false)
		_, errs[fmt.Sprint("mapped query ", i)] = DecodeQuery(data, true)
	}
	for i, data := range products {
		_, errs[fmt.Sprint("unmarshalProduct ", i)] = unmarshalProduct(data)
	}
	decodeBundles := func(errs map[string]error, name string, data []byte) {
		path := filepath.Join(t.TempDir(), "legacy.nwq")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, errs["OpenBundle "+name] = OpenBundle(path)
		_, errs["UnmarshalBundle "+name] = UnmarshalBundle(data)
		_, errs["mapped bundle "+name] = decodeBundle(data, true)
		_, errs["VetBytes bundle "+name] = VetBytes(data)
	}
	for i, data := range bundles {
		decodeBundles(errs, fmt.Sprint(i), data)
	}
	for entry, err := range errs {
		if !errors.Is(err, ErrLegacyLayout) {
			t.Errorf("%s: got %v, want ErrLegacyLayout", entry, err)
		}
	}
	unhashed := map[string]error{}
	decodeBundles(unhashed, "v1", goldenFiles(t, "golden_bundle_v1.nwq")[0])
	for entry, err := range unhashed {
		if !errors.Is(err, format.ErrUnhashed) {
			t.Errorf("%s: got %v, want format.ErrUnhashed", entry, err)
		}
	}
}

// TestNNWAContainersRejected feeds compiled NNWA containers — the committed
// rejection fixtures standalone, and embedded in a hashed bundle next to a
// served DNWA — to every decode entry: each must fail with
// ErrNNWANotServed.  The bundle embeds the standalone container whole; the
// decoder rejects it on the header kind before reading any section.
func TestNNWAContainersRejected(t *testing.T) {
	alpha := goldenAlphabet()
	standalone := goldenFiles(t, "golden_nnwa.nwq", "golden_nnwa_v1.nwq")
	bundle := writeBundle(format.VersionHashed, alpha.Symbols(), []string{"well-formed", "nondet"},
		Compile(WellFormed(alpha)).encode(false, format.Version1), standalone[1])
	path := filepath.Join(t.TempDir(), "nnwa.nwq")
	if err := os.WriteFile(path, bundle, 0o644); err != nil {
		t.Fatal(err)
	}
	errs := map[string]error{}
	_, errs["OpenBundle"] = OpenBundle(path)
	_, errs["UnmarshalBundle"] = UnmarshalBundle(bundle)
	_, errs["mapped bundle"] = decodeBundle(bundle, true)
	_, errs["VetBytes bundle"] = VetBytes(bundle)
	for i, data := range standalone {
		_, errs[fmt.Sprint("DecodeQuery ", i)] = DecodeQuery(data, false)
	}
	for entry, err := range errs {
		if !errors.Is(err, ErrNNWANotServed) {
			t.Errorf("%s: got %v, want ErrNNWANotServed", entry, err)
		}
	}
}
