package query

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/query/format"
)

// TestTamperedBundleFailsClosed is the integrity table test the hashed
// format exists for: flip one bit in EVERY byte of the committed golden
// v2 bundle — header, hash field, directory, every section payload,
// padding — and each mutation must make every load path fail with an
// error, never a panic and never a silently different bundle.  Bytes
// covered by the content hash must specifically report ErrHashMismatch;
// flips inside the stored hash field itself are equally fatal (the
// declared hash no longer matches the re-computed one); flips in the
// magic or version fail before hashing with their own typed errors.
func TestTamperedBundleFailsClosed(t *testing.T) {
	// golden_planned.nwq adds a product group, so the sweep also covers
	// the product container and its compacted DNWA meta.
	for _, file := range []string{"golden_bundle.nwq", "golden_planned.nwq"} {
		t.Run(file, func(t *testing.T) { tamperBundle(t, file) })
	}
}

func tamperBundle(t *testing.T, file string) {
	data, err := os.ReadFile(filepath.Join("testdata", file))
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != format.VersionHashed {
		t.Fatalf("fixture is version %d, want %d (regenerate with -update)", v, format.VersionHashed)
	}
	if _, err := UnmarshalBundle(data); err != nil {
		t.Fatalf("pristine fixture does not load: %v", err)
	}

	const (
		magicEnd   = 4
		versionEnd = 8
		hashStart  = 24
		hashEnd    = 56
	)
	mut := make([]byte, len(data))
	for i := range data {
		copy(mut, data)
		mut[i] ^= 1

		err := func() (err error) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("byte %d flipped: load panicked: %v", i, r)
				}
			}()
			_, err = UnmarshalBundle(mut)
			return err
		}()
		if err == nil {
			t.Fatalf("byte %d flipped: bundle still loaded", i)
		}
		switch {
		case i < magicEnd:
			if errors.Is(err, format.ErrHashMismatch) {
				t.Fatalf("byte %d (magic) flipped: got ErrHashMismatch before the magic check: %v", i, err)
			}
		case i < versionEnd:
			// A flipped version bit either lands on an unsupported version
			// (its own error) or is caught by the hash — both fail closed.
		default:
			// Kind, flags, count, the hash field itself, the directory, and
			// every payload byte are all covered: ErrHashMismatch, always.
			if !errors.Is(err, format.ErrHashMismatch) {
				t.Fatalf("byte %d flipped: got %v, want ErrHashMismatch", i, err)
			}
		}

		// The zero-copy path — what OpenBundle's mmap uses — must reject
		// identically: a flipped bit in a mapped file fails closed.
		if _, err := LoadBundleMapped(mut); err == nil {
			t.Fatalf("byte %d flipped: zero-copy load still succeeded", i)
		}
	}
}

// TestTamperedStandaloneQueries runs the same flip-every-byte check over
// the golden standalone DNWA and NNWA fixtures through UnmarshalQuery.
func TestTamperedStandaloneQueries(t *testing.T) {
	for _, file := range []string{"golden_dnwa.nwq", "golden_nnwa.nwq"} {
		t.Run(file, func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join("testdata", file))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := UnmarshalQuery(data); err != nil {
				t.Fatalf("pristine fixture does not load: %v", err)
			}
			mut := make([]byte, len(data))
			for i := range data {
				copy(mut, data)
				mut[i] ^= 1
				if _, err := UnmarshalQuery(mut); err == nil {
					t.Fatalf("byte %d flipped: query still loaded", i)
				}
				if i >= 8 {
					if _, err := UnmarshalQuery(mut); !errors.Is(err, format.ErrHashMismatch) {
						t.Fatalf("byte %d flipped: want ErrHashMismatch", i)
					}
				}
			}
		})
	}
}

// TestTamperedFileOnDisk pins the OpenBundle path end to end: a flipped
// bit in the file a server would mmap is refused at open, with
// ErrHashMismatch, and the file never maps.
func TestTamperedFileOnDisk(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "golden_bundle.nwq"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "tampered.nwq")
	mut := append([]byte(nil), data...)
	mut[len(mut)/2] ^= 0x10
	if err := os.WriteFile(path, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenBundle(path); !errors.Is(err, format.ErrHashMismatch) {
		t.Fatalf("OpenBundle on a tampered file: got %v, want ErrHashMismatch", err)
	}
}

// TestCompactedReturnTableTamper corrupts the hierarchical-state count of a
// product automaton (the golden planned fixture's 7-state, H=2 DNWA) in
// each way the decoder, and so VetBytes, must refuse: H outside [1, num], a start
// state that cannot be hierarchical, a call pushing a state ≥ H, and a dense
// return table not sized num·H·syms.
func TestCompactedReturnTableTamper(t *testing.T) {
	fresh := func() *Compiled {
		c := *goldenPlannedBundle(t).Groups()[0].Product.inner
		c.callHier = append([]int32(nil), c.callHier...)
		return &c
	}
	if c := fresh(); c.hiers >= c.num || !c.dense {
		t.Fatalf("fixture changed: H=%d of %d states, dense=%v", c.hiers, c.num, c.dense)
	}
	for _, tc := range []struct {
		name   string
		mutate func(c *Compiled)
	}{
		{"H zero", func(c *Compiled) { c.hiers = 0 }},
		{"H above num", func(c *Compiled) { c.hiers = c.num + 1 }},
		{"start not hierarchical", func(c *Compiled) { c.start = int32(c.hiers) }},
		{"call pushes state H", func(c *Compiled) { c.callHier[c.syms] = int32(c.hiers) }},
		{"dense table one row short", func(c *Compiled) { c.returnT = c.returnT[:len(c.returnT)-c.syms] }},
	} {
		c := fresh()
		tc.mutate(c)
		if _, err := UnmarshalCompiled(c.Marshal()); err == nil {
			t.Errorf("%s: decoder accepted the container", tc.name)
		}
		if rep, err := VetBytes(c.Marshal()); err == nil {
			t.Errorf("%s: VetBytes accepted the container:\n%s", tc.name, rep)
		}
	}

	// The pristine compacted automaton round-trips, and its semantic view
	// has no return edge from a hierarchical state ≥ H.
	c := fresh()
	data := c.Marshal()
	dec, err := UnmarshalCompiled(data)
	if err != nil {
		t.Fatal(err)
	}
	if dec.hiers != c.hiers || !bytes.Equal(dec.Marshal(), data) {
		t.Fatalf("compacted DNWA round trip: H=%d, want %d, or bytes changed", dec.hiers, c.hiers)
	}
	g := dnwaGraph{c}
	for lin := 0; lin < c.num; lin++ {
		for hier := c.hiers; hier < c.num; hier++ {
			for sym := 0; sym < c.syms; sym++ {
				g.EachReturnEdge(lin, hier, sym, func(to int) {
					t.Fatalf("EachReturnEdge(%d, %d, %d) yielded %d past H=%d", lin, hier, sym, to, c.hiers)
				})
			}
		}
	}
}

// TestSparseReturnKeyTamper writes sparse return keys that decompose to a
// state outside the tables — a linear state ≥ num, or a hierarchical state
// ≥ H of a compacted product — into otherwise valid, correctly hashed
// containers.  The decoder must refuse each, so VetBytes (whose dead-sink
// and dead-transition passes index by the key's states) returns the
// decoder's error instead of panicking.
func TestSparseReturnKeyTamper(t *testing.T) {
	defer func(old int) { denseReturnLimit = old }(denseReturnLimit)
	denseReturnLimit = 1
	lastKey := func(keys []uint64, key uint64) []uint64 {
		keys = append([]uint64(nil), keys...)
		keys[len(keys)-1] = key
		return keys
	}
	for _, tc := range []struct {
		name  string
		build func(t *testing.T) []byte
		want  string
	}{
		{"DNWA linear state past num", func(t *testing.T) []byte {
			c := Compile(PathQuery(goldenAlphabet(), "a", "b"))
			c.sparseR.keys = lastKey(c.sparseR.keys, uint64(c.num*c.num*c.syms+5))
			return c.Marshal()
		}, "names linear state"},
		{"NNWA linear state past num", func(t *testing.T) []byte {
			c := CompileN(goldenNNWA())
			c.retKeys = lastKey(c.retKeys, uint64(c.num*c.num*c.syms))
			return c.Marshal()
		}, "names linear state"},
		{"compacted DNWA hierarchical state past H", func(t *testing.T) []byte {
			alpha := goldenAlphabet()
			p, err := CompileProduct([]Query{Compile(LinearOrder(alpha, "a", "b")), Compile(LinearOrder(alpha, "b", "a"))}, 0)
			if err != nil {
				t.Fatal(err)
			}
			c := p.inner
			if c.dense || c.hiers >= c.num {
				t.Fatalf("fixture changed: dense=%v, H=%d of %d states", c.dense, c.hiers, c.num)
			}
			// The largest key any table can hold: lin = hier = num-1.
			c.sparseR.keys = lastKey(c.sparseR.keys, uint64(c.num*c.num*c.syms-1))
			return c.Marshal()
		}, "names hierarchical state"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data := tc.build(t)
			if _, err := UnmarshalQuery(data); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("decoder: got %v, want an error naming %q", err, tc.want)
			}
			if rep, err := VetBytes(data); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("VetBytes: got %v (report %v), want an error naming %q", err, rep, tc.want)
			}
		})
	}
}
