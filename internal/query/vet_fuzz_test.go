package query

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzBundleVet is the artifact-verifier fuzz target, mirroring
// FuzzUnmarshalCompiled one layer up: arbitrary bytes and mutated-but-valid
// marshals pushed through VetBytes must either fail with an error or come
// back as a renderable report — never a panic.  Decoding is vet's one
// structural gate, so VetBytes must fail exactly when UnmarshalBundle does:
// no input vets that does not decode, and every input that decodes comes
// back as a report.
func FuzzBundleVet(f *testing.F) {
	alpha := goldenAlphabet()
	seeds := [][]byte{
		// Standalone containers, which vet refuses as no bundle; the
		// explicit Version1 encode keeps the unhashed refusal in the corpus.
		Compile(PathQuery(alpha, "a", "b")).marshal(),
		Compile(PathQuery(alpha, "a", "b")).encode(true, 1),
		Compile(WellFormed(alpha)).marshal(),
		Compile(unreachableDNWA()).marshal(),
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
	// A planned bundle: a product with a compacted, factored return table,
	// the committed factored fixtures, and the legacy-layout (at both
	// versions) and NNWA rejection fixtures.
	seeds = append(seeds, goldenPlannedBundle(f).Marshal())
	seeds = append(seeds, goldenFiles(f, "golden_dnwa_factored.nwq", "golden_planned_factored.nwq", "golden_planned.nwq",
		"golden_bundle.nwq", "golden_bundle_v1.nwq", "golden_nnwa.nwq", "golden_nnwa_v1.nwq")...)
	// Legacy return tables, dense and sparse, which the decoder refuses: a
	// DNWA, and a planned bundle whose product is compacted.
	pathQuery := Compile(PathQuery(alpha, "a", "b"))
	seeds = append(seeds,
		legacyEncode(pathQuery, false, true, 1),
		legacyEncode(pathQuery, true, true, 1),
		legacyMarshalPlanned(goldenPlannedBundle(f), false),
		legacyMarshalPlanned(goldenPlannedBundle(f), true),
	)
	for _, s := range seeds {
		f.Add(s)
		if len(s) > 40 {
			f.Add(s[:40])
			f.Add(s[:len(s)-3])
			mut := bytes.Clone(s)
			mut[len(mut)/2] ^= 0xff
			f.Add(mut)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<18 {
			data = data[:1<<18]
		}
		rep, err := VetBytes(data)
		_, decErr := UnmarshalBundle(data)
		if (err == nil) != (decErr == nil) {
			t.Fatalf("VetBytes error %v, decoder error %v: vet must fail exactly when decoding does", err, decErr)
		}
		if err != nil {
			if rep != nil {
				t.Fatal("VetBytes returned both a report and an error")
			}
			return
		}
		_ = rep.String() // the report must always render
	})
}

// goldenFiles reads committed fixtures from testdata/.
func goldenFiles(tb testing.TB, files ...string) [][]byte {
	tb.Helper()
	out := make([][]byte, len(files))
	for i, file := range files {
		data, err := os.ReadFile(filepath.Join("testdata", file))
		if err != nil {
			tb.Fatal(err)
		}
		out[i] = data
	}
	return out
}
