package query

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/alphabet"
	"repro/internal/query/format"
)

// This file serializes the compiled automata: compiled tables are immutable
// and deterministic, so once a query set is compiled it can be written to
// disk as a versioned little-endian artifact and booted by any number of
// front-end processes without recompiling — the "compiled-query persistence"
// direction of the roadmap.  The container layout (header, section
// directory, 8-byte-aligned payloads) lives in the format subpackage; this
// file owns the section registry and the semantic validation.
//
// One object kind is served, a Bundle (format.KindBundle): one shared
// alphabet, the query names, and one embedded per-query blob per query,
// plus the product clusters of a planned bundle.  It is the one top-level
// artifact, written at format.VersionHashed and refused at any other
// version (format.ErrUnhashed).  Its blobs keep the unhashed Version1
// header, which the bundle's hash covers:
//
//   - a Compiled DNWA (format.KindDNWA): meta (with the hierarchical-state
//     count H as an optional sixth value), accept bytes, the dense
//     call/internal tables, and the factored return table: num·H row IDs and
//     the distinct rows;
//   - a CompiledProduct (format.KindProduct): see product.go.
//
// Written standalone, with their own alphabet section, the two are test
// oracles of the blob decoder and the byte pins; nothing serves them.
//
// A compiled NNWA container (format.KindNNWA), standalone or embedded in a
// bundle, decodes to ErrNNWANotServed: every NNWA has an equivalent DNWA
// (Section 3.2), so such a query is determinized and recompiled instead.  A
// DNWA whose return table predates the factored layout decodes to
// ErrLegacyLayout, refused on its meta section before any table is read.
//
// Unmarshal* copy every table out of the input; OpenBundle maps a file
// read-only (mmap where available) and points the int32/uint64 table slices
// directly into the mapped region via checked reinterpretation — the
// cold-boot path experiment E25 measures against parse+compile.
//
// Every decode path validates the tables before a runner can touch them —
// lengths against num/syms, targets against the state range, return row IDs
// against the row count, accept-mask bits beyond the query count clear — so
// arbitrary bytes fail with an error rather than a panic.  Every table a
// decode allocates is a copy of, or a view sized by, a section of the input,
// so decoding allocates at most a small multiple of its input's length,
// accepted or refused (TestDecodeAllocBoundedByInput pins it).

// Section tags of the serialized compiled-query containers.  Tags are
// stable; new sections may be added in later versions but existing ones
// never change meaning.
const (
	secMeta     = 1 // uint64s: kind-specific dimensions and flags
	secAlphabet = 2 // string list: alphabet symbols in index order
	secAccept   = 3 // bytes: one 0/1 byte per state
	secCallLin  = 4 // int32s: linear call targets
	secCallHier = 5 // int32s: hierarchical call targets
	secInternal = 6 // int32s: internal targets (DNWA dense table)

	// Tags 7–9 held the dense and sparse DNWA return tables written before
	// the factored layout, and tags 10–18 the sections of compiled NNWA
	// containers (start states, CSR adjacency, successor bitmask slabs).
	// Neither is read or written any more; the tags are retired and never
	// reused.

	secNames = 19 // string list: bundle query names
	secQuery = 20 // bytes: one embedded query container per bundle query

	// Product-compiled cluster sections (format.KindProduct, PR 9).
	secAcceptMask = 21 // uint64s: per-query accept bitmask slab
	secGroupIdx   = 22 // int32s: bundle indices the product's mask bits demux to
	secSolo       = 23 // int32s: bundle indices served by fanned-out secQuery blobs
	secProduct    = 24 // bytes: one embedded KindProduct container per cluster

	// Factored DNWA return table (meta[4] = returnFactored).
	secRowIDs = 25 // int32s: return row ID per (lin, hier) pair, index lin·H+hier
	secRows   = 26 // int32s: distinct return rows, syms targets each
)

// returnFactored is the DNWA return-table layout, the fifth meta value.
// Containers written before it hold layout 0 (sparse) or 1 (dense), which
// decode to ErrLegacyLayout.
const returnFactored = 2

// ErrLegacyLayout is the error every decode path returns for a DNWA whose
// return table is in a layout written before the factored one, standalone
// or embedded in a product or bundle.  Such a query is recompiled instead.
//
//nwvet:oracle TestDecodeAllocBoundedByInput and the golden-fixture tests match it with errors.Is
var ErrLegacyLayout = errors.New("query: return-table layout predates the factored layout; recompile the bundle")

// Decode limits: far beyond any automaton this repository compiles, but
// small enough that no validation product overflows and no runner index
// computation wraps.
const (
	maxStates  = 1 << 22
	maxSymbols = 1 << 20
)

// mul returns a*b, reporting overflow or a negative operand as !ok.
func mul(a, b int) (int, bool) {
	if a < 0 || b < 0 {
		return 0, false
	}
	if a == 0 || b == 0 {
		return 0, true
	}
	p := a * b
	if p/a != b {
		return 0, false
	}
	return p, true
}

func boolBytes(v []bool) []byte {
	b := make([]byte, len(v))
	for i, x := range v {
		if x {
			b[i] = 1
		}
	}
	return b
}

// marshal serializes the compiled automaton, alphabet included, into a
// standalone, hashed KindDNWA container (format.VersionHashed).
//
//nwvet:oracle TestMarshalRoundTripCompiled, TestGoldenFixtures and FuzzUnmarshalCompiled decode the standalone containers it writes
func (c *Compiled) marshal() []byte { return c.encode(true, format.VersionHashed) }

func (c *Compiled) encode(includeAlpha bool, version uint32) []byte {
	w := format.NewWriter(format.KindDNWA)
	w.SetVersion(version)
	meta := []uint64{uint64(c.num), uint64(c.syms), uint64(c.start), uint64(c.dead), returnFactored}
	if c.hiers != c.num {
		// Written only when H < num, so a container with H = num (every
		// single DNWA written before Compile numbered hier-capable states
		// first) keeps its five-value meta and its bytes.
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
	w.Int32s(secRowIDs, c.rowID)
	w.Int32s(secRows, c.rows)
	return w.Finish()
}

// decodeState holds what a single query decode needs: the parsed container,
// the alphabet (shared by a bundle, or read from the blob's own section),
// and whether table slices may alias the input bytes.
type decodeState struct {
	r        *format.Reader
	alpha    *alphabet.Alphabet
	zeroCopy bool
}

func (d *decodeState) section(tag uint32, what string) ([]byte, error) {
	b, ok := d.r.Section(tag)
	if !ok {
		return nil, fmt.Errorf("query: serialized automaton is missing its %s section", what)
	}
	return b, nil
}

func (d *decodeState) int32s(tag uint32, what string) ([]int32, error) {
	b, err := d.section(tag, what)
	if err != nil {
		return nil, err
	}
	v, err := format.Int32s(b, d.zeroCopy)
	if err != nil {
		return nil, fmt.Errorf("query: %s section: %w", what, err)
	}
	return v, nil
}

func (d *decodeState) uint64s(tag uint32, what string) ([]uint64, error) {
	b, err := d.section(tag, what)
	if err != nil {
		return nil, err
	}
	v, err := format.Uint64s(b, d.zeroCopy)
	if err != nil {
		return nil, fmt.Errorf("query: %s section: %w", what, err)
	}
	return v, nil
}

// loadAlphabet reads the container's own alphabet section when no shared
// alphabet was supplied.  Product containers call it before decoding their
// embedded automaton (whose symbol count is not yet known); resolveAlphabet
// adds the size check once it is.
func (d *decodeState) loadAlphabet() error {
	if d.alpha != nil {
		return nil
	}
	b, err := d.section(secAlphabet, "alphabet")
	if err != nil {
		return err
	}
	symbols, err := format.Strings(b)
	if err != nil {
		return fmt.Errorf("query: alphabet section: %w", err)
	}
	d.alpha = alphabet.New(symbols...)
	if d.alpha.Size() != len(symbols) {
		return fmt.Errorf("query: serialized alphabet repeats a symbol (%d listed, %d distinct)",
			len(symbols), d.alpha.Size())
	}
	return nil
}

// resolveAlphabet returns the shared alphabet, or reads the blob's own
// alphabet section, and checks it against the serialized symbol count.
func (d *decodeState) resolveAlphabet(syms int) error {
	if err := d.loadAlphabet(); err != nil {
		return err
	}
	if d.alpha.Size()+1 != syms {
		return fmt.Errorf("query: automaton compiled over %d symbols, alphabet has %d",
			syms-1, d.alpha.Size())
	}
	return nil
}

// decodeAccept reads the per-state accept bytes (always copied — []bool
// cannot alias arbitrary bytes safely).
func (d *decodeState) decodeAccept(num int) ([]bool, error) {
	b, err := d.section(secAccept, "accept")
	if err != nil {
		return nil, err
	}
	if len(b) != num {
		return nil, fmt.Errorf("query: accept section holds %d states, automaton has %d", len(b), num)
	}
	accept := make([]bool, num)
	for i, x := range b {
		if x > 1 {
			return nil, fmt.Errorf("query: accept byte %d is %d, want 0 or 1", i, x)
		}
		accept[i] = x == 1
	}
	return accept, nil
}

// checkTargets verifies every entry of a target table lies in [0, num).
func checkTargets(what string, t []int32, num int) error {
	for i, v := range t {
		if v < 0 || int(v) >= num {
			return fmt.Errorf("query: %s[%d] = %d outside the %d states", what, i, v, num)
		}
	}
	return nil
}

// decodeCompiled rebuilds a Compiled from a KindDNWA container.
func decodeCompiled(d *decodeState) (*Compiled, error) {
	if d.r.Kind() != format.KindDNWA {
		return nil, fmt.Errorf("query: container kind %d is not a compiled DNWA", d.r.Kind())
	}
	meta, err := d.uint64s(secMeta, "meta")
	if err != nil {
		return nil, err
	}
	if len(meta) < 5 {
		return nil, fmt.Errorf("query: DNWA meta section holds %d values, want 5", len(meta))
	}
	if meta[4] < returnFactored {
		return nil, fmt.Errorf("%w (layout %d)", ErrLegacyLayout, meta[4])
	}
	if meta[4] > returnFactored {
		return nil, fmt.Errorf("query: return table layout %d unknown (want %d, factored)", meta[4], returnFactored)
	}
	num, syms := int(meta[0]), int(meta[1])
	if num < 1 || num > maxStates {
		return nil, fmt.Errorf("query: %d states outside [1, %d]", meta[0], maxStates)
	}
	if syms < 1 || syms > maxSymbols {
		return nil, fmt.Errorf("query: %d symbol columns outside [1, %d]", meta[1], maxSymbols)
	}
	hiers := num
	if len(meta) > 5 {
		if meta[5] < 1 || meta[5] > uint64(num) {
			return nil, fmt.Errorf("query: %d hierarchical states outside [1, %d]", meta[5], num)
		}
		hiers = int(meta[5])
	}
	if meta[2] >= uint64(hiers) || meta[3] >= uint64(num) {
		return nil, fmt.Errorf("query: start %d / dead %d outside the %d hierarchical / %d states",
			meta[2], meta[3], hiers, num)
	}
	c := &Compiled{
		num:   num,
		hiers: hiers,
		syms:  syms,
		start: int32(meta[2]),
		dead:  int32(meta[3]),
	}
	if err := d.resolveAlphabet(syms); err != nil {
		return nil, err
	}
	c.alpha = d.alpha
	if c.accept, err = d.decodeAccept(num); err != nil {
		return nil, err
	}
	cells, ok := mul(num, syms)
	if !ok {
		return nil, fmt.Errorf("query: %d×%d transition cells overflow", num, syms)
	}
	for _, t := range []struct {
		tag   uint32
		what  string
		dst   *[]int32
		limit int // targets lie in [0, limit)
	}{
		{secCallLin, "call linear", &c.callLin, num},
		{secCallHier, "call hierarchical", &c.callHier, hiers},
		{secInternal, "internal", &c.internT, num},
	} {
		v, err := d.int32s(t.tag, t.what)
		if err != nil {
			return nil, err
		}
		if len(v) != cells {
			return nil, fmt.Errorf("query: %s table holds %d cells, want %d", t.what, len(v), cells)
		}
		if err := checkTargets(t.what, v, t.limit); err != nil {
			return nil, err
		}
		*t.dst = v
	}
	pairs, ok := mul(num, hiers)
	if !ok {
		return nil, fmt.Errorf("query: %d×%d return pairs overflow", num, hiers)
	}
	rowID, err := d.int32s(secRowIDs, "return row IDs")
	if err != nil {
		return nil, err
	}
	if len(rowID) != pairs {
		return nil, fmt.Errorf("query: return row-ID table holds %d pairs, want %d (%d states × %d hierarchical)",
			len(rowID), pairs, num, hiers)
	}
	rows, err := d.int32s(secRows, "return rows")
	if err != nil {
		return nil, err
	}
	if len(rows)%syms != 0 {
		return nil, fmt.Errorf("query: return rows hold %d targets, not a multiple of %d symbols", len(rows), syms)
	}
	for i, r := range rowID {
		if r < 0 || int(r) >= len(rows)/syms {
			return nil, fmt.Errorf("query: return row ID %d = %d outside the %d rows", i, r, len(rows)/syms)
		}
	}
	if err := checkTargets("return row", rows, num); err != nil {
		return nil, err
	}
	c.rowID, c.rows = rowID, rows
	return c, nil
}

// ErrNNWANotServed is the error every decode path returns for a compiled
// NNWA container (format.KindNNWA), standalone or embedded in a bundle.
var ErrNNWANotServed = errors.New("query: NNWA containers are not served; determinize and recompile")

// decodeQuery dispatches on the container kind.
func decodeQuery(data []byte, alpha *alphabet.Alphabet, zeroCopy bool) (*Compiled, error) {
	r, err := format.NewReader(data)
	if err != nil {
		return nil, err
	}
	switch r.Kind() {
	case format.KindDNWA:
		return decodeCompiled(&decodeState{r: r, alpha: alpha, zeroCopy: zeroCopy})
	case format.KindNNWA:
		return nil, ErrNNWANotServed
	default:
		return nil, fmt.Errorf("query: container kind %d is not a compiled query", r.Kind())
	}
}

// Marshal serializes the product cluster, alphabet included, into a
// standalone KindProduct container: meta ({query count, mode 0}), the accept
// bitmask slab, and the product automaton as an embedded KindDNWA blob.
//
//nwvet:oracle TestProductBytesPinned pins the bytes it writes
func (p *CompiledProduct) Marshal() []byte {
	return p.encode(true, nil, format.VersionHashed)
}

func (p *CompiledProduct) encode(includeAlpha bool, groupIdx []int32, version uint32) []byte {
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
	w.Bytes(secQuery, p.inner.encode(false, format.Version1))
	return w.Finish()
}

// decodeProduct rebuilds a CompiledProduct from a KindProduct container,
// returning the demux indices of its group-index section when present (a
// bundle-embedded product names the bundle slots its mask bits answer).
// Beyond the embedded automaton's own validation, the accept mask must have
// one row of maskWords(query count) words per state and no bits beyond
// the query count — the "mask width == query count" guarantee nwtool vet
// relies on.  Mode 1, the jointly-stepped nondeterministic union older
// planners wrote, is refused: such bundles must be re-planned.
func decodeProduct(d *decodeState) (*CompiledProduct, []int32, error) {
	if d.r.Kind() != format.KindProduct {
		return nil, nil, fmt.Errorf("query: container kind %d is not a product cluster", d.r.Kind())
	}
	meta, err := d.uint64s(secMeta, "meta")
	if err != nil {
		return nil, nil, err
	}
	if len(meta) < 2 {
		return nil, nil, fmt.Errorf("query: product meta section holds %d values, want 2", len(meta))
	}
	nq, mode := int(meta[0]), meta[1]
	if nq < 1 || nq > maxStates {
		return nil, nil, fmt.Errorf("query: product over %d queries outside [1, %d]", meta[0], maxStates)
	}
	if mode != 0 {
		return nil, nil, fmt.Errorf("query: product mode %d is not read, only the deterministic mode 0 (re-plan bundles with joint mode-1 groups)", mode)
	}
	if err := d.loadAlphabet(); err != nil {
		return nil, nil, err
	}
	var groupIdx []int32
	if _, ok := d.r.Section(secGroupIdx); ok {
		if groupIdx, err = d.int32s(secGroupIdx, "group index"); err != nil {
			return nil, nil, err
		}
		if len(groupIdx) != nq {
			return nil, nil, fmt.Errorf("query: product answers %d queries but demuxes to %d bundle slots",
				nq, len(groupIdx))
		}
	}
	blob, err := d.section(secQuery, "embedded automaton")
	if err != nil {
		return nil, nil, err
	}
	ir, err := format.NewReader(blob)
	if err != nil {
		return nil, nil, fmt.Errorf("query: product automaton: %w", err)
	}
	inner, err := decodeCompiled(&decodeState{r: ir, alpha: d.alpha, zeroCopy: d.zeroCopy})
	if err != nil {
		return nil, nil, fmt.Errorf("query: product automaton: %w", err)
	}
	mask, err := d.uint64s(secAcceptMask, "accept mask")
	if err != nil {
		return nil, nil, err
	}
	p := &CompiledProduct{inner: inner, nq: nq, mask: mask, maskW: maskWords(nq)}
	want, ok := mul(inner.num, p.maskW)
	if !ok || len(mask) != want {
		return nil, nil, fmt.Errorf("query: product accept mask holds %d words, want %d (%d states × %d)",
			len(mask), want, inner.num, p.maskW)
	}
	// A bit beyond the query count would demux a verdict to a bundle slot
	// the product does not answer.
	if rem := uint(nq) & 63; rem != 0 {
		high := ^uint64(0) << rem
		for s := 0; s < inner.num; s++ {
			if mask[s*p.maskW+p.maskW-1]&high != 0 {
				return nil, nil, fmt.Errorf("query: accept mask row %d sets bits beyond the %d queries", s, nq)
			}
		}
	}
	return p, groupIdx, nil
}

// unmarshalProduct decodes a standalone serialized product cluster, copying
// every table out of data.
//
//nwvet:oracle TestProductMarshalRoundTrip, TestProductJointModeRejected and FuzzBundleVet decode standalone products through it
func unmarshalProduct(data []byte) (*CompiledProduct, error) {
	r, err := format.NewReader(data)
	if err != nil {
		return nil, err
	}
	p, _, err := decodeProduct(&decodeState{r: r})
	return p, err
}

// Bundle is a named, ordered set of compiled queries over one shared
// alphabet — the serializable unit a fleet of front-ends boots from.  Build
// one with NewBundle/Add and Marshal it, or load one with UnmarshalBundle or
// OpenBundle and hand it to engine.RegisterBundle (or
// serve.NewPoolFromBundle).
//
// A bundle may additionally be planned (plan.Bundle or NewPlannedBundle):
// some queries then live inside product-compiled clusters instead of the
// per-query slice — Query and Compiled return nil at those indices and
// Groups says which product answers them — while names, order, and verdict
// semantics stay exactly those of the unplanned bundle.
type Bundle struct {
	alpha   *alphabet.Alphabet
	names   []string
	queries []*Compiled // nil at indices covered by a product group
	groups  []ProductGroup
	close   func() error

	// Identity of the container this bundle was decoded from, for serving
	// and cache keying: raw aliases the decode input (the mapped region for
	// OpenBundle) and hash is its verified content hash.  Both are zero for
	// a bundle built in memory.
	raw  []byte
	hash [format.HashSize]byte
}

// ProductGroup is one planned cluster of a bundle: a product-compiled
// automaton plus the bundle indices its mask bits demux to (Indices[j] is
// the bundle slot answered by verdict bit j).
type ProductGroup struct {
	Indices []int32
	Product *CompiledProduct
}

// NewBundle starts an empty bundle over the given alphabet.
func NewBundle(alpha *alphabet.Alphabet) *Bundle { return &Bundle{alpha: alpha} }

// Add appends a compiled query under a display name.  The name must be new
// and the query's alphabet must equal the bundle's (the same invariant
// engine.RegisterQuery enforces, checked here so a bundle cannot be
// serialized in an unbootable state).  Only *Compiled, the one served
// compiled form, is accepted: a CompiledN is determinized and compiled first.
func (b *Bundle) Add(name string, q Query) error {
	c, ok := q.(*Compiled)
	if !ok {
		return fmt.Errorf("query: bundle cannot serialize %T (want *Compiled)", q)
	}
	for _, n := range b.names {
		if n == name {
			return fmt.Errorf("query: bundle already holds a query named %q", name)
		}
	}
	if !b.alpha.Equal(c.alpha) {
		return fmt.Errorf("query: query %q uses alphabet %v, bundle is over %v", name, c.alpha, b.alpha)
	}
	b.names = append(b.names, name)
	b.queries = append(b.queries, c)
	return nil
}

// Len returns the number of queries in the bundle.
func (b *Bundle) Len() int { return len(b.queries) }

// Alphabet returns the bundle's shared alphabet.
func (b *Bundle) Alphabet() *alphabet.Alphabet { return b.alpha }

// Names returns the query names in index order (a copy).
func (b *Bundle) Names() []string { return append([]string(nil), b.names...) }

// Name returns the i-th query's display name.
func (b *Bundle) Name(i int) string { return b.names[i] }

// Query returns the i-th compiled query, or an untyped nil when index i is
// answered by a product group of a planned bundle (see Groups).
func (b *Bundle) Query(i int) Query {
	if c := b.queries[i]; c != nil {
		return c
	}
	return nil
}

// Compiled returns the i-th compiled query, or nil when index i is answered
// by a product group of a planned bundle (see Groups).
func (b *Bundle) Compiled(i int) *Compiled { return b.queries[i] }

// Groups returns the product-compiled clusters of a planned bundle (empty
// for an unplanned one).  The returned slice is shared; treat it as
// read-only.
func (b *Bundle) Groups() []ProductGroup { return b.groups }

// Raw returns the serialized container this bundle was decoded from, or
// nil for a bundle built in memory.  The slice aliases the decode input —
// for OpenBundle that is the mapped region, invalid after Close — so
// treat it as read-only and copy it before the bundle goes away.
func (b *Bundle) Raw() []byte { return b.raw }

// Verify checks a detached NWS1 signature envelope against the container
// this bundle was decoded from, whose content hash was verified against
// its bytes at decode time; pub is an NWP1 key file or bare 32-byte
// ed25519 key.
func (b *Bundle) Verify(pub, envelope []byte) error {
	if b.raw == nil {
		return fmt.Errorf("query: bundle was built in memory, nothing to verify")
	}
	return format.VerifyHash(pub, envelope, b.hash)
}

// NewPlannedBundle assembles a planned bundle over the same alphabet,
// names, and order as src: each cluster (a list of src query indices,
// paired positionally with its product) is answered by the product's
// verdict mask, every other query stays fanned out.  Clusters must
// partition a subset of src's indices — in range, disjoint, sized to the
// product's query count — and every product must share src's alphabet; src
// itself must be unplanned.
func NewPlannedBundle(src *Bundle, clusters [][]int, products []*CompiledProduct) (*Bundle, error) {
	if len(src.groups) != 0 {
		return nil, fmt.Errorf("query: bundle is already planned (%d groups)", len(src.groups))
	}
	if len(clusters) != len(products) {
		return nil, fmt.Errorf("query: %d clusters paired with %d products", len(clusters), len(products))
	}
	b := &Bundle{
		alpha:   src.alpha,
		names:   append([]string(nil), src.names...),
		queries: append([]*Compiled(nil), src.queries...),
	}
	grouped := make([]bool, len(b.queries))
	for gi, cluster := range clusters {
		p := products[gi]
		if p == nil {
			return nil, fmt.Errorf("query: cluster %d has no product", gi)
		}
		if p.nq != len(cluster) {
			return nil, fmt.Errorf("query: cluster %d holds %d queries, product answers %d",
				gi, len(cluster), p.nq)
		}
		if !b.alpha.Equal(p.alphabet()) {
			return nil, fmt.Errorf("query: cluster %d product uses alphabet %v, bundle is over %v",
				gi, p.alphabet(), b.alpha)
		}
		g := ProductGroup{Indices: make([]int32, len(cluster)), Product: p}
		for j, idx := range cluster {
			if idx < 0 || idx >= len(b.queries) {
				return nil, fmt.Errorf("query: cluster %d index %d outside the %d queries", gi, idx, len(b.queries))
			}
			if grouped[idx] {
				return nil, fmt.Errorf("query: query %q appears in two clusters", b.names[idx])
			}
			grouped[idx] = true
			g.Indices[j] = int32(idx)
			b.queries[idx] = nil
		}
		b.groups = append(b.groups, g)
	}
	return b, nil
}

// Marshal serializes the bundle: the shared alphabet once, the names, and
// one embedded container per query (each without its own alphabet section).
// A planned bundle writes its solo-index section, one embedded container
// per solo query (paired positionally with the solo indices), and one
// embedded KindProduct container per cluster, each carrying its demux
// indices; an unplanned bundle's layout is byte-identical to what it was
// before planning existed.
// The bundle is written at VersionHashed; embedded blobs always stay at
// Version1: the outer container's content hash covers their bytes, so a
// per-blob hash would add 32 bytes per query for no extra integrity.
func (b *Bundle) Marshal() []byte {
	w := format.NewWriter(format.KindBundle)
	w.SetVersion(format.VersionHashed)
	w.Strings(secAlphabet, b.alpha.Symbols())
	w.Strings(secNames, b.names)
	var solo []int32
	for i, c := range b.queries {
		if c == nil {
			continue
		}
		if len(b.groups) > 0 {
			solo = append(solo, int32(i))
		}
		w.Bytes(secQuery, c.encode(false, format.Version1))
	}
	if len(b.groups) > 0 {
		w.Int32s(secSolo, solo)
		for _, g := range b.groups {
			w.Bytes(secProduct, g.Product.encode(false, g.Indices, format.Version1))
		}
	}
	return w.Finish()
}

// Close releases the mapped region backing a bundle from OpenBundle; after
// Close no query of the bundle may be used.  Bundles built in memory or
// loaded with UnmarshalBundle have nothing to release.
func (b *Bundle) Close() error {
	if b.close == nil {
		return nil
	}
	c := b.close
	b.close = nil
	return c()
}

// decodeBundle rebuilds a bundle from a top-level artifact, which
// format.NewArtifactReader checks is a hashed KindBundle container: a
// Version1 one is refused with format.ErrUnhashed.
func decodeBundle(data []byte, zeroCopy bool) (*Bundle, error) {
	r, err := format.NewArtifactReader(data)
	if err != nil {
		return nil, err
	}
	d := &decodeState{r: r}
	if err := d.loadAlphabet(); err != nil {
		return nil, err
	}
	alpha := d.alpha
	namesSec, ok := r.Section(secNames)
	if !ok {
		return nil, fmt.Errorf("query: bundle is missing its names section")
	}
	names, err := format.Strings(namesSec)
	if err != nil {
		return nil, fmt.Errorf("query: bundle names: %w", err)
	}
	if dup := firstDuplicate(names); dup != "" {
		return nil, fmt.Errorf("query: bundle names repeat %q", dup)
	}
	blobs := r.Sections(secQuery)
	b := &Bundle{alpha: alpha, names: names, raw: data, hash: r.ContentHash()}
	// The solo-index section pairs positionally with the embedded query
	// blobs, product containers carry their own demux indices, and together
	// they must cover every name exactly once — the demux-table total nwtool
	// vet relies on.  An unplanned bundle has no solo section: its blobs
	// answer every name, in order.
	var solo []int32
	if soloSec, planned := r.Section(secSolo); planned {
		if solo, err = format.Int32s(soloSec, false); err != nil {
			return nil, fmt.Errorf("query: bundle solo indices: %w", err)
		}
	} else {
		solo = make([]int32, len(names))
		for i := range solo {
			solo[i] = int32(i)
		}
	}
	if len(blobs) != len(solo) {
		return nil, fmt.Errorf("query: bundle lists %d solo queries but embeds %d", len(solo), len(blobs))
	}
	b.queries = make([]*Compiled, len(names))
	covered := make([]bool, len(names))
	claim := func(idx int32, what string) error {
		if idx < 0 || int(idx) >= len(names) {
			return fmt.Errorf("query: bundle %s index %d outside the %d queries", what, idx, len(names))
		}
		if covered[idx] {
			return fmt.Errorf("query: bundle covers query %q twice", names[idx])
		}
		covered[idx] = true
		return nil
	}
	for i, blob := range blobs {
		if err := claim(solo[i], "solo"); err != nil {
			return nil, err
		}
		q, err := decodeQuery(blob, alpha, zeroCopy)
		if err != nil {
			return nil, fmt.Errorf("query: bundle query %q: %w", names[solo[i]], err)
		}
		b.queries[solo[i]] = q
	}
	for gi, blob := range r.Sections(secProduct) {
		pr, err := format.NewReader(blob)
		if err != nil {
			return nil, fmt.Errorf("query: bundle product %d: %w", gi, err)
		}
		p, idx, err := decodeProduct(&decodeState{r: pr, alpha: alpha, zeroCopy: zeroCopy})
		if err != nil {
			return nil, fmt.Errorf("query: bundle product %d: %w", gi, err)
		}
		if idx == nil {
			return nil, fmt.Errorf("query: bundle product %d has no demux indices", gi)
		}
		for _, i := range idx {
			if err := claim(i, "product"); err != nil {
				return nil, err
			}
		}
		b.groups = append(b.groups, ProductGroup{Indices: idx, Product: p})
	}
	for i, ok := range covered {
		if !ok {
			return nil, fmt.Errorf("query: bundle covers neither solo nor product for query %q", names[i])
		}
	}
	return b, nil
}

func firstDuplicate(names []string) string {
	sorted := append([]string(nil), names...)
	sort.Strings(sorted)
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			return sorted[i]
		}
	}
	return ""
}

// UnmarshalBundle decodes a serialized bundle, copying every table out of
// data.
func UnmarshalBundle(data []byte) (*Bundle, error) { return decodeBundle(data, false) }

// OpenBundle maps the file read-only (mmap where the platform provides it,
// a plain read otherwise) and loads the bundle zero-copy: the transition
// tables of every query point straight into the mapped region (checked
// reinterpretation of the little-endian sections), so N processes opening
// one bundle share a single resident copy of the compiled tables.  Call
// Close on the bundle to release the mapping.
func OpenBundle(path string) (*Bundle, error) {
	data, closeFn, err := format.Map(path)
	if err != nil {
		return nil, err
	}
	b, err := decodeBundle(data, true)
	if err != nil {
		closeFn()
		return nil, err
	}
	b.close = closeFn
	return b, nil
}
