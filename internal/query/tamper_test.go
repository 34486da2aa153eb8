package query

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"slices"
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
	// The factored fixtures load pristine: golden_bundle_factored.nwq is
	// unplanned, and golden_planned_factored.nwq adds a product group, so
	// the sweep also covers the product container and its compacted DNWA
	// meta.  The legacy-layout rejection fixtures fail pristine with
	// ErrLegacyLayout; flipped, they fail the hash check first.
	for file, pristine := range map[string]error{
		"golden_bundle_factored.nwq":  nil,
		"golden_planned_factored.nwq": nil,
		"golden_bundle.nwq":           ErrLegacyLayout,
		"golden_planned.nwq":          ErrLegacyLayout,
	} {
		t.Run(file, func(t *testing.T) { tamperBundle(t, file, pristine) })
	}
}

func tamperBundle(t *testing.T, file string, pristine error) {
	data, err := os.ReadFile(filepath.Join("testdata", file))
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != format.VersionHashed {
		t.Fatalf("fixture is version %d, want %d (regenerate with -update)", v, format.VersionHashed)
	}
	if _, err := UnmarshalBundle(data); !errors.Is(err, pristine) {
		t.Fatalf("pristine fixture: got %v, want %v", err, pristine)
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
		if _, err := decodeBundle(mut, true); err == nil {
			t.Fatalf("byte %d flipped: zero-copy load still succeeded", i)
		}
	}
}

// TestTamperedStandaloneQueries runs the same flip-every-byte check over
// the golden standalone DNWA (legacy and factored) and NNWA fixtures
// through DecodeQuery.  The pristine legacy DNWA fixture fails with
// ErrLegacyLayout and the NNWA one with ErrNNWANotServed; a tampered one
// fails the hash check first.
func TestTamperedStandaloneQueries(t *testing.T) {
	for file, pristine := range map[string]error{
		"golden_dnwa.nwq":          ErrLegacyLayout,
		"golden_dnwa_factored.nwq": nil,
		"golden_nnwa.nwq":          ErrNNWANotServed,
	} {
		t.Run(file, func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join("testdata", file))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := DecodeQuery(data, false); !errors.Is(err, pristine) {
				t.Fatalf("pristine fixture: got %v, want %v", err, pristine)
			}
			mut := make([]byte, len(data))
			for i := range data {
				copy(mut, data)
				mut[i] ^= 1
				if _, err := DecodeQuery(mut, false); err == nil {
					t.Fatalf("byte %d flipped: query still loaded", i)
				}
				if i >= 8 {
					if _, err := DecodeQuery(mut, false); !errors.Is(err, format.ErrHashMismatch) {
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
	data, err := os.ReadFile(filepath.Join("testdata", "golden_bundle_factored.nwq"))
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

// soloBundle embeds one query container, named "q", in a hashed bundle over
// the golden alphabet, so VetBytes reaches the blob's decoder.
func soloBundle(blob []byte) []byte {
	return writeBundle(format.VersionHashed, goldenAlphabet().Symbols(), []string{"q"}, blob)
}

// TestCompactedReturnTableTamper corrupts the hierarchical-state count of a
// product automaton (the golden planned fixture's 7-state, H=2 DNWA) in
// each way the decoder, and so VetBytes of a bundle embedding it, must
// refuse: H outside [1, num], a start state that cannot be hierarchical,
// and a call pushing a state ≥ H.
func TestCompactedReturnTableTamper(t *testing.T) {
	fresh := func() *Compiled {
		c := *goldenPlannedBundle(t).Groups()[0].Product.inner
		c.callHier = append([]int32(nil), c.callHier...)
		return &c
	}
	if c := fresh(); c.hiers >= c.num {
		t.Fatalf("fixture changed: H=%d of %d states", c.hiers, c.num)
	}
	for _, tc := range []struct {
		name   string
		mutate func(c *Compiled) *Compiled
	}{
		{"H zero", func(c *Compiled) *Compiled { c.hiers = 0; return c }},
		{"H above num", func(c *Compiled) *Compiled { c.hiers = c.num + 1; return c }},
		{"start not hierarchical", func(c *Compiled) *Compiled { c.start = int32(c.hiers); return c }},
		{"call pushes state H", func(c *Compiled) *Compiled { c.callHier[c.syms] = int32(c.hiers); return c }},
	} {
		c := tc.mutate(fresh())
		if _, err := DecodeQuery(c.marshal(), false); err == nil {
			t.Errorf("%s: decoder accepted the container", tc.name)
		}
		if rep, err := VetBytes(soloBundle(c.marshal())); err == nil {
			t.Errorf("%s: VetBytes accepted the container:\n%s", tc.name, rep)
		}
	}

	// The pristine compacted automaton round-trips, and its semantic view
	// has no return edge from a hierarchical state ≥ H.
	c := fresh()
	data := c.marshal()
	dec, err := DecodeQuery(data, false)
	if err != nil {
		t.Fatal(err)
	}
	if dec.hiers != c.hiers || !bytes.Equal(dec.marshal(), data) {
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

// TestFactoredReturnTableTamper writes factored return tables that would
// index outside themselves into otherwise valid, correctly hashed
// containers: a row ID at or past the row count, a row target at or past
// num, a row-ID table not sized num·H, rows not a whole number of
// syms-wide rows, and a call pushing a state ≥ H on a single DNWA whose
// states Compile renumbered hier-first.  The decoder, and so VetBytes of a
// bundle embedding the container, must refuse each.
func TestFactoredReturnTableTamper(t *testing.T) {
	product := func() *Compiled { return goldenPlannedBundle(t).Groups()[0].Product.inner }
	solo := func() *Compiled { return Compile(LinearOrder(goldenAlphabet(), "a", "b")) }
	if c := solo(); c.hiers >= c.num {
		t.Fatalf("fixture changed: the solo DNWA has H=%d of %d states", c.hiers, c.num)
	}
	for _, tc := range []struct {
		name   string
		build  func() *Compiled
		mutate func(c *Compiled)
		want   string
	}{
		{"row ID past the rows", product, func(c *Compiled) {
			c.rowID = slices.Clone(c.rowID)
			c.rowID[len(c.rowID)-1] = int32(len(c.rows) / c.syms)
		}, "return row ID"},
		{"row target past num", product, func(c *Compiled) {
			c.rows = slices.Clone(c.rows)
			c.rows[len(c.rows)-1] = int32(c.num)
		}, "return row["},
		{"row IDs one pair short", product, func(c *Compiled) { c.rowID = c.rowID[:len(c.rowID)-1] }, "return row-ID table"},
		{"row IDs one pair long", product, func(c *Compiled) { c.rowID = append(slices.Clone(c.rowID), 0) }, "return row-ID table"},
		{"rows not a multiple of syms", product, func(c *Compiled) { c.rows = c.rows[:len(c.rows)-1] }, "not a multiple"},
		{"solo call pushes state H", solo, func(c *Compiled) {
			c.callHier = slices.Clone(c.callHier)
			c.callHier[0] = int32(c.hiers)
		}, "call hierarchical"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.build()
			tc.mutate(c)
			data := c.marshal()
			if _, err := DecodeQuery(data, false); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("decoder: got %v, want an error naming %q", err, tc.want)
			}
			if _, err := DecodeQuery(data, true); err == nil {
				t.Error("zero-copy decoder accepted the container")
			}
			if rep, err := VetBytes(soloBundle(data)); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("VetBytes: got %v (report %v), want an error naming %q", err, rep, tc.want)
			}
		})
	}
}

// TestSparseReturnKeyTamper writes sparse return keys that decompose to a
// state outside the tables — a linear state ≥ num, or a hierarchical state
// ≥ H of a compacted product — into otherwise valid, correctly hashed
// legacy sparse containers.  The decoder refuses the sparse layout on its
// meta section, before a key is read, so the decoder and VetBytes of a
// bundle embedding the container both fail with ErrLegacyLayout.
func TestSparseReturnKeyTamper(t *testing.T) {
	withLastKey := func(c *Compiled, key uint64) []byte {
		_, keys, vals := legacyReturns(c, true)
		keys[len(keys)-1] = key
		return legacyWrite(c, true, format.VersionHashed, nil, keys, vals)
	}
	for _, tc := range []struct {
		name  string
		build func(t *testing.T) []byte
	}{
		{"DNWA linear state past num", func(t *testing.T) []byte {
			c := Compile(PathQuery(goldenAlphabet(), "a", "b"))
			return withLastKey(c, uint64(c.num*c.num*c.syms+5))
		}},
		{"compacted DNWA hierarchical state past H", func(t *testing.T) []byte {
			alpha := goldenAlphabet()
			p, err := CompileProduct([]*Compiled{Compile(LinearOrder(alpha, "a", "b")), Compile(LinearOrder(alpha, "b", "a"))}, 0)
			if err != nil {
				t.Fatal(err)
			}
			c := p.inner
			if c.hiers >= c.num {
				t.Fatalf("fixture changed: H=%d of %d states", c.hiers, c.num)
			}
			// The largest key any table can hold: lin = hier = num-1.
			return withLastKey(c, uint64(c.num*c.num*c.syms-1))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data := tc.build(t)
			if _, err := DecodeQuery(data, false); !errors.Is(err, ErrLegacyLayout) {
				t.Errorf("decoder: got %v, want ErrLegacyLayout", err)
			}
			if rep, err := VetBytes(soloBundle(data)); !errors.Is(err, ErrLegacyLayout) {
				t.Errorf("VetBytes: got %v (report %v), want ErrLegacyLayout", err, rep)
			}
		})
	}
}
