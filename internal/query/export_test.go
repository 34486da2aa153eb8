package query

import (
	"fmt"

	"repro/internal/query/format"
)

// PairCounts is what the product fixpoint paired: the (LID, HID) pairs it
// visited, the class tuples it expanded, and how many distinct tuples of
// member lin-classes (LIDs) and hier-classes (HIDs) it numbered.
type PairCounts struct {
	Expanded, Visited int
	LinIDs, HierIDs   int
}

// ProductPairCounts runs the product fixpoint over a cluster of members and
// reports its PairCounts, with the fixpoint's error (nil or
// ErrStateBudget).  A budget ≤ 0 means the serialization limit, as in
// CompileProduct.
func ProductPairCounts(members []*Compiled, budget int) (PairCounts, error) {
	if budget <= 0 || budget > maxStates {
		budget = maxStates
	}
	b := newDetBuilder(members, budget)
	err := b.fixpoint()
	return PairCounts{b.expanded, b.visited, b.lids.len(), b.hids.len()}, err
}

// Return-table layouts and sections written before the factored layout.
// The decoder refuses them (ErrLegacyLayout); the reference encoder below
// still writes them, for the legacy hashes of TestProductBytesPinned, the
// rejection tests and the fuzz seeds.
const (
	legacySparse   = 0 // layout: sorted keys (tag 8) and their targets (tag 9)
	legacyDense    = 1 // layout: the num·H·syms table (tag 7)
	secLegacyDense = 7
	secLegacyKeys  = 8
	secLegacyVals  = 9
)

// legacyReturns returns c's return table in a layout written before the
// factored one: dense, index (lin·H+hier)·syms+sym, or, when sparse is set,
// the ascending keys (lin·num+hier)·syms+sym of every transition whose
// target is not the dead state, with their targets.
func legacyReturns(c *Compiled, sparse bool) (dense []int32, keys []uint64, vals []int32) {
	for lin := int32(0); int(lin) < c.num; lin++ {
		for hier := int32(0); int(hier) < c.hiers; hier++ {
			row := c.returnRow(lin, hier)
			if !sparse {
				dense = append(dense, row...)
				continue
			}
			for sym, to := range row {
				if to != c.dead {
					keys = append(keys, uint64((int(lin)*c.num+int(hier))*c.syms+sym))
					vals = append(vals, to)
				}
			}
		}
	}
	return dense, keys, vals
}

// legacyEncode serializes c as the encoder before the factored layout did:
// the same sections, with the return table dense or, when sparse is set,
// sparse (see legacyReturns).
func legacyEncode(c *Compiled, sparse, includeAlpha bool, version uint32) []byte {
	dense, keys, vals := legacyReturns(c, sparse)
	return legacyWrite(c, includeAlpha, version, dense, keys, vals)
}

// legacyWrite serializes c's sections but its return table, which it
// replaces with the given dense table, or with the sparse keys and values
// when dense is nil.
func legacyWrite(c *Compiled, includeAlpha bool, version uint32, dense []int32, keys []uint64, vals []int32) []byte {
	w := format.NewWriter(format.KindDNWA)
	w.SetVersion(version)
	layout := uint64(legacyDense)
	if dense == nil {
		layout = legacySparse
	}
	meta := []uint64{uint64(c.num), uint64(c.syms), uint64(c.start), uint64(c.dead), layout}
	if c.hiers != c.num {
		meta = append(meta, uint64(c.hiers))
	}
	w.Uint64s(secMeta, meta)
	if includeAlpha {
		w.Strings(secAlphabet, c.alpha.Symbols())
	}
	w.Bytes(secAccept, boolBytes(c.accept))
	w.Int32s(secCallLin, c.callLin)
	w.Int32s(secCallHier, c.callHier)
	w.Int32s(secInternal, c.internT)
	if dense == nil {
		w.Uint64s(secLegacyKeys, keys)
		w.Int32s(secLegacyVals, vals)
	} else {
		w.Int32s(secLegacyDense, dense)
	}
	return w.Finish()
}

// legacyEncodeProduct serializes p as CompiledProduct.encode does, with its
// automaton in a legacy return layout (see legacyEncode).
func legacyEncodeProduct(p *CompiledProduct, sparse, includeAlpha bool, groupIdx []int32, version uint32) []byte {
	w := format.NewWriter(format.KindProduct)
	w.SetVersion(version)
	w.Uint64s(secMeta, []uint64{uint64(p.nq), 0})
	if includeAlpha {
		w.Strings(secAlphabet, p.alphabet().Symbols())
	}
	if groupIdx != nil {
		w.Int32s(secGroupIdx, groupIdx)
	}
	w.Uint64s(secAcceptMask, p.mask)
	w.Bytes(secQuery, legacyEncode(p.inner, sparse, false, format.Version1))
	return w.Finish()
}

// legacyMarshalPlanned serializes a planned bundle as Bundle.Marshal does,
// with the automata of its product groups in a legacy return layout.
func legacyMarshalPlanned(b *Bundle, sparse bool) []byte {
	w := format.NewWriter(format.KindBundle)
	w.SetVersion(format.VersionHashed)
	w.Strings(secAlphabet, b.alpha.Symbols())
	w.Strings(secNames, b.names)
	var solo []int32
	for i, c := range b.queries {
		if c != nil {
			solo = append(solo, int32(i))
			w.Bytes(secQuery, c.encode(false, format.Version1))
		}
	}
	w.Int32s(secSolo, solo)
	for _, g := range b.groups {
		w.Bytes(secProduct, legacyEncodeProduct(g.Product, sparse, false, g.Indices, format.Version1))
	}
	return w.Finish()
}

// LegacyMarshal serializes a product as the encoder before the factored
// layout did: dense return table, or sparse past 2²² cells.
func LegacyMarshal(p *CompiledProduct) []byte {
	sparse := p.inner.num*p.inner.hiers*p.inner.syms > 1<<22
	return legacyEncodeProduct(p, sparse, true, nil, format.VersionHashed)
}

// EmptySparseBundle writes a hashed bundle of n queries over the empty
// alphabet, each a DNWA of num states with all-zero tables and an empty
// return table in the legacy sparse layout.  A decoder that factored such
// a table on load allocated num² row IDs per query from a few bytes of
// input.
func EmptySparseBundle(n, num int) []byte {
	q := format.NewWriter(format.KindDNWA)
	zeros := make([]int32, num)
	q.Uint64s(secMeta, []uint64{uint64(num), 1, 0, 0, legacySparse})
	q.Bytes(secAccept, make([]byte, num))
	q.Int32s(secCallLin, zeros)
	q.Int32s(secCallHier, zeros)
	q.Int32s(secInternal, zeros)
	q.Uint64s(secLegacyKeys, nil)
	q.Int32s(secLegacyVals, nil)
	blob := q.Finish()
	names := make([]string, n)
	blobs := make([][]byte, n)
	for i := range names {
		names[i], blobs[i] = fmt.Sprint("q", i), blob
	}
	return writeBundle(format.VersionHashed, nil, names, blobs...)
}

// DecodeQuery decodes a standalone compiled DNWA, zero-copy when mapped is
// set, as every query of a mapped bundle is decoded.
func DecodeQuery(data []byte, mapped bool) (*Compiled, error) { return decodeQuery(data, nil, mapped) }

// DecodeBundle decodes a bundle, zero-copy when mapped is set, as
// OpenBundle decodes the region it maps.
func DecodeBundle(data []byte, mapped bool) (*Bundle, error) { return decodeBundle(data, mapped) }
