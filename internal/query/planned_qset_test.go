package query

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/nwa"
	"repro/internal/query/format"
)

// plannedGoldenBundle product-compiles the golden bundle's first two
// queries into one group, leaving the third solo.
func plannedGoldenBundle(t *testing.T) *Bundle {
	t.Helper()
	src := goldenBundle(t)
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

// checkProductAgreement replays random words through a product runner and the
// member queries, failing on any demuxed verdict divergence.
func checkProductAgreement(t *testing.T, label string, p *CompiledProduct, members []*Compiled, trials int) {
	t.Helper()
	rng := rand.New(rand.NewSource(321))
	words, _ := randomWords(rng, trials, []string{"a", "b", "zz"})
	alpha := p.alphabet()
	r := p.NewProductRunner()
	for wi, w := range words {
		RunWord(r, alpha, w)
		for j, m := range members {
			if want := RunWord(m.NewRunner(), alpha, w); r.Verdict(j) != want {
				t.Fatalf("%s: word %d, member %d: product %v, member %v on %v",
					label, wi, j, r.Verdict(j), want, w)
			}
		}
	}
}

// TestProductMarshalRoundTrip round-trips products through
// Marshal/unmarshalProduct — one keeping every hierarchical column, one
// compacted to H < num — checking byte-identical re-encoding, preserved
// shape, and verdict agreement against the original members.
func TestProductMarshalRoundTrip(t *testing.T) {
	for _, build := range []func() ([]*Compiled, []*nwa.DNWA){detProductMembers, orderProductMembers} {
		members, _ := build()
		p, err := CompileProduct(members, 0)
		if err != nil {
			t.Fatal(err)
		}
		data := p.Marshal()
		dec, err := unmarshalProduct(data)
		if err != nil {
			t.Fatalf("unmarshalProduct: %v", err)
		}
		if dec.nq != p.nq || dec.NumStates() != p.NumStates() || dec.inner.hiers != p.inner.hiers {
			t.Fatalf("decoded shape %d/%d/%d, want %d/%d/%d",
				dec.nq, dec.NumStates(), dec.inner.hiers,
				p.nq, p.NumStates(), p.inner.hiers)
		}
		if !dec.alphabet().Equal(p.alphabet()) {
			t.Fatalf("decoded alphabet %v", dec.alphabet())
		}
		if again := dec.Marshal(); !bytes.Equal(again, data) {
			t.Fatal("decode→re-encode changed the bytes")
		}
		checkProductAgreement(t, fmt.Sprintf("%d states, H=%d", p.NumStates(), p.inner.hiers), dec, members, 200)
	}
}

// TestProductJointModeRejected pins the format break: a product container
// in mode 1, the jointly-stepped nondeterministic union older planners
// wrote, is refused with an error naming the mode.
func TestProductJointModeRejected(t *testing.T) {
	members, _ := detProductMembers()
	p, err := CompileProduct(members, 0)
	if err != nil {
		t.Fatal(err)
	}
	w := format.NewWriter(format.KindProduct)
	w.Uint64s(secMeta, []uint64{uint64(p.nq), 1})
	w.Strings(secAlphabet, p.alphabet().Symbols())
	w.Uint64s(secAcceptMask, p.mask)
	w.Bytes(secQuery, p.inner.encode(false, format.Version1))
	if _, err := unmarshalProduct(w.Finish()); err == nil || !strings.Contains(err.Error(), "mode 1") {
		t.Fatalf("mode-1 product: err = %v, want an error naming mode 1", err)
	}
}

// TestPlannedBundleRoundTrip round-trips a planned bundle — one product
// group plus a solo query — through Marshal and every load path.
func TestPlannedBundleRoundTrip(t *testing.T) {
	planned := plannedGoldenBundle(t)
	src := goldenBundle(t)
	data := planned.Marshal()
	checkQuerySlots(t, "in memory", planned)

	for _, load := range []struct {
		name string
		fn   func([]byte) (*Bundle, error)
	}{
		{"UnmarshalBundle", UnmarshalBundle},
		{"mapped", func(data []byte) (*Bundle, error) { return decodeBundle(data, true) }},
		{"OpenBundle", func(data []byte) (*Bundle, error) {
			path := filepath.Join(t.TempDir(), "planned.nwq")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				return nil, err
			}
			b, err := OpenBundle(path)
			if err == nil {
				t.Cleanup(func() { b.Close() })
			}
			return b, err
		}},
	} {
		dec, err := load.fn(data)
		if err != nil {
			t.Fatalf("%s: %v", load.name, err)
		}
		if dec.Len() != src.Len() {
			t.Fatalf("%s: %d names, want %d", load.name, dec.Len(), src.Len())
		}
		groups := dec.Groups()
		if len(groups) != 1 {
			t.Fatalf("%s: %d groups, want 1", load.name, len(groups))
		}
		g := groups[0]
		if len(g.Indices) != 2 || g.Indices[0] != 0 || g.Indices[1] != 1 {
			t.Fatalf("%s: group indices %v, want [0 1]", load.name, g.Indices)
		}
		checkQuerySlots(t, load.name, dec)
		checkProductAgreement(t, load.name, g.Product, []*Compiled{src.Compiled(0), src.Compiled(1)}, 150)
		checkQueryAgreement(t, load.name+" solo", src.Query(2), dec.Query(2), 120)
		if again := dec.Marshal(); !bytes.Equal(again, data) {
			t.Fatalf("%s: decode→re-encode changed the bytes", load.name)
		}
	}
}

// checkQuerySlots checks the slots of a planned golden bundle, whose
// queries 0 and 1 are product-grouped and 2 is solo: Query is an untyped
// nil interface at a grouped slot — Describe and the benchmark's per-kind
// engines read it that way — and a *Compiled, as Compiled returns it, at
// the solo one.
func checkQuerySlots(t *testing.T, label string, b *Bundle) {
	t.Helper()
	for i := 0; i < b.Len(); i++ {
		q, c := b.Query(i), b.Compiled(i)
		if i < 2 {
			if q != nil || c != nil {
				t.Fatalf("%s: grouped slot %d holds Query %#v, Compiled %p; want untyped nil and nil", label, i, q, c)
			}
			continue
		}
		if got, ok := q.(*Compiled); !ok || got == nil || got != c {
			t.Fatalf("%s: solo slot %d holds Query %T, Compiled %p; want the same *Compiled", label, i, q, c)
		}
	}
}

// TestNewPlannedBundleErrors pins the planned-bundle construction
// invariants.
func TestNewPlannedBundleErrors(t *testing.T) {
	src := goldenBundle(t)
	p, err := CompileProduct([]*Compiled{src.Compiled(0), src.Compiled(1)}, 0)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name     string
		clusters [][]int
		products []*CompiledProduct
	}{
		{"length mismatch", [][]int{{0, 1}}, nil},
		{"nil product", [][]int{{0, 1}}, []*CompiledProduct{nil}},
		{"count mismatch", [][]int{{0}}, []*CompiledProduct{p}},
		{"index out of range", [][]int{{0, 9}}, []*CompiledProduct{p}},
		{"duplicate index", [][]int{{0, 0}}, []*CompiledProduct{p}},
	}
	for _, tc := range cases {
		if _, err := NewPlannedBundle(src, tc.clusters, tc.products); err == nil {
			t.Errorf("%s: NewPlannedBundle succeeded", tc.name)
		}
	}
	planned := plannedGoldenBundle(t)
	if _, err := NewPlannedBundle(planned, nil, nil); err == nil {
		t.Error("planning an already-planned bundle succeeded")
	}
}

// TestPlannedBundleDecodeErrors corrupts a valid planned marshal in targeted
// ways: every mutation must fail cleanly.
func TestPlannedBundleDecodeErrors(t *testing.T) {
	data := plannedGoldenBundle(t).Marshal()
	for i := 0; i < len(data); i += 11 {
		if _, err := UnmarshalBundle(data[:i]); err == nil {
			t.Fatalf("truncation to %d bytes decoded successfully", i)
		}
	}
	// A planned container is still a bundle: the per-query loaders reject it.
	if _, err := unmarshalProduct(data); err == nil {
		t.Error("unmarshalProduct accepted a planned bundle container")
	}
	// A bare product container is not a bundle.
	members, _ := detProductMembers()
	p, err := CompileProduct(members, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalBundle(p.Marshal()); err == nil {
		t.Error("UnmarshalBundle accepted a bare product container")
	}
	// A bare product blob has no alphabet section of its own.
	if _, err := unmarshalProduct(p.encode(false, nil, format.VersionHashed)); err == nil {
		t.Error("unmarshalProduct accepted a product with no alphabet")
	}
}
