package query

import (
	"bytes"
	"testing"

	"repro/internal/query/format"
)

// exerciseDecoded drives a decoded query hard enough to hit every table:
// calls, internals, matched and pending returns, in-range and out-of-range
// symbol IDs, plus Accepting and Reset.  A decoder bug that let an invalid
// table through shows up here as a panic or slice overrun.
func exerciseDecoded(q Query) {
	r := q.NewRunner()
	syms := q.Alphabet().Size() + 1
	for _, sym := range []int{0, syms - 1, syms, -1, 1 << 20} {
		r.StepCall(sym)
		r.StepInternal(sym)
		r.StepReturn(sym)
	}
	r.StepReturn(0) // pending return on a drained stack
	r.Accepting()
	r.Reset()
	r.Accepting()
}

// FuzzUnmarshalCompiled is the serialization fuzz target: arbitrary bytes
// must make every decoder fail cleanly — an error, never a panic and never
// an allocation sized beyond the input — and any input that does decode
// must re-marshal into bytes that decode again (valid marshals round-trip).
// The copy and zero-copy paths are both exercised.
func FuzzUnmarshalCompiled(f *testing.F) {
	alpha := goldenAlphabet()
	seeds := [][]byte{
		// Marshal emits VersionHashed containers; the explicit Version1
		// encodes keep the unhashed decode path in the corpus too.
		Compile(PathQuery(alpha, "a", "b")).marshal(),
		Compile(PathQuery(alpha, "a", "b")).encode(true, 1),
		Compile(WellFormed(alpha)).marshal(),
		{},
		[]byte("NWQ1"),
	}
	b := NewBundle(alpha)
	if err := b.Add("wf", Compile(WellFormed(alpha))); err != nil {
		f.Fatal(err)
	}
	if err := b.Add("//a//b", Compile(PathQuery(alpha, "a", "b"))); err != nil {
		f.Fatal(err)
	}
	seeds = append(seeds, b.Marshal())
	// A product automaton whose return table is compacted to H < num, so
	// the sixth meta value is fuzzed too.
	compact := goldenPlannedBundle(f).Groups()[0].Product.inner
	seeds = append(seeds, compact.marshal(), compact.encode(true, 1))
	// The committed factored fixtures, and the legacy-layout and NNWA
	// rejection fixtures and legacy dense and sparse tables, which the
	// decoder must refuse.
	seeds = append(seeds, goldenFiles(f, "golden_dnwa.nwq", "golden_dnwa_factored.nwq", "golden_planned_factored.nwq",
		"golden_nnwa.nwq", "golden_nnwa_v1.nwq")...)
	seeds = append(seeds,
		legacyEncode(compact, false, true, 1),
		legacyEncode(compact, true, true, 1),
		legacyEncode(Compile(WellFormed(alpha)), true, true, format.VersionHashed),
	)
	for _, s := range seeds {
		f.Add(s)
		if len(s) > 40 {
			f.Add(s[:40])         // truncated header/directory
			f.Add(s[:len(s)-3])   // truncated payload
			mut := bytes.Clone(s) // corrupted payload
			mut[len(mut)/2] ^= 0xff
			f.Add(mut)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<18 {
			data = data[:1<<18]
		}
		if c, err := DecodeQuery(data, false); err == nil {
			exerciseDecoded(c)
			if _, err := DecodeQuery(c.marshal(), false); err != nil {
				t.Fatalf("decoded query failed to round-trip: %v", err)
			}
		}
		// The zero-copy path must accept and reject exactly the same inputs;
		// decode from a private copy so table aliasing cannot leak into the
		// next iteration.
		if q, err := DecodeQuery(bytes.Clone(data), true); err == nil {
			exerciseDecoded(q)
		}
		if bdl, err := UnmarshalBundle(data); err == nil {
			exerciseBundle(bdl)
			if _, err := UnmarshalBundle(rebuildBundleRaw(bdl).Marshal()); err != nil {
				t.Fatalf("decoded bundle failed to round-trip: %v", err)
			}
		}
		if bdl, err := decodeBundle(bytes.Clone(data), true); err == nil {
			exerciseBundle(bdl)
		}
	})
}

// exerciseBundle drives every solo query and every product automaton of a
// decoded bundle.
func exerciseBundle(b *Bundle) {
	for i := 0; i < b.Len(); i++ {
		if q := b.Query(i); q != nil {
			exerciseDecoded(q)
		}
	}
	for _, g := range b.Groups() {
		exerciseDecoded(g.Product.inner)
	}
}

// rebuildBundleRaw is rebuildBundle without the testing.T plumbing, for the
// fuzz path where Add cannot fail on a just-decoded bundle.  A planned
// bundle, whose product members have no query of their own, is returned as
// decoded.
func rebuildBundleRaw(b *Bundle) *Bundle {
	if len(b.Groups()) > 0 {
		return b
	}
	out := NewBundle(b.Alphabet())
	for i, name := range b.Names() {
		if err := out.Add(name, b.Query(i)); err != nil {
			panic(err)
		}
	}
	return out
}
