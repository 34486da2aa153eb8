package query

import (
	"bytes"
	"testing"
)

// FuzzBundleVet is the artifact-verifier fuzz target, mirroring
// FuzzUnmarshalCompiled one layer up: arbitrary bytes and mutated-but-valid
// marshals pushed through VetBytes must either fail with an error or come
// back as a renderable report — never a panic — and an input that vets
// without errors must also decode, since vet gates what a fleet maps.
func FuzzBundleVet(f *testing.F) {
	alpha := goldenAlphabet()
	seeds := [][]byte{
		// Marshal emits VersionHashed containers; the explicit Version1
		// encodes keep the unhashed-container vet path in the corpus.
		Compile(PathQuery(alpha, "a", "b")).Marshal(),
		Compile(PathQuery(alpha, "a", "b")).encode(true, 1),
		Compile(WellFormed(alpha)).Marshal(),
		CompileN(goldenNNWA()).Marshal(),
		CompileN(goldenNNWA()).encode(true, 1),
		CompileN(unreachableNNWA()).Marshal(),
		{},
		[]byte("NWQ1"),
	}
	b := NewBundle(alpha)
	if err := b.Add("wf", Compile(WellFormed(alpha))); err != nil {
		f.Fatal(err)
	}
	if err := b.Add("nn", CompileN(goldenNNWA())); err != nil {
		f.Fatal(err)
	}
	seeds = append(seeds, b.Marshal())
	// A mask/CSR disagreement: the corruption only vet can see.
	tampered := CompileN(goldenNNWA())
	tampered.maskRow(tampered.intMask, 0, 0).Unset(1)
	seeds = append(seeds, tampered.Marshal())
	// A planned bundle: a product with a compacted return table.
	seeds = append(seeds, goldenPlannedBundle(f).Marshal())
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
		if err != nil {
			if rep != nil {
				t.Fatal("VetBytes returned both a report and an error")
			}
			return
		}
		_ = rep.String() // the report must always render
		if rep.Errors() == 0 {
			if _, err := UnmarshalQuery(data); err != nil {
				if _, err := UnmarshalBundle(data); err != nil {
					t.Fatalf("input vets clean but does not decode: %v", err)
				}
			}
		}
	})
}
