// Package format implements the versioned, little-endian on-disk container
// behind the query package's serialized compiled query sets: a fixed header
// (magic, version, object kind, flags), a section directory up front (one
// tag/offset/length triple per section, every offset 8-byte aligned), and
// the raw section payloads.  The layout is deliberately position-independent
// and alignment-friendly so a reader can point int32/uint64 table slices
// directly into an mmap'd byte region — the zero-copy load path a fleet of
// front-ends uses to share one compiled query set instead of recompiling per
// process.
//
// The package knows nothing about automata: it moves tagged byte sections,
// typed little-endian slices, and string lists.  What the sections mean —
// transition tables, alphabets, bitset mask slabs — is the query package's
// business (see internal/query/qset.go for the section registry and the
// documented file layout).
//
// Every decoding entry point validates bounds before allocating, and all
// allocation sizes are bounded by the input length, so arbitrary bytes fail
// cleanly (an error, never a panic or an attacker-sized allocation).
//
// Two header versions exist (the byte-level reference is docs/FORMAT.md):
// version 2 appends a SHA-256 content hash over the rest of the container
// to the original 24-byte version-1 header.  A top-level artifact — what a
// server maps, a cache stores, a key signs and vet checks — is a version-2
// bundle, and NewArtifactReader is the one gate that says so.  Its content
// hash is the artifact's one identity: the cache key and integrity check
// that lets a fleet verify a bundle fetched from an untrusted cache before
// mapping it.  Version 1 survives only as the header of the blobs embedded
// in a bundle, which the outer hash covers.  NewReader verifies the hash of
// every version-2 container it opens and fails closed with ErrHashMismatch
// on any flipped bit.  The detached ed25519 signature envelope over the
// content hash lives in sign.go.
package format

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"unsafe"
)

// magic is the four-byte file signature opening every container.
const magic = "NWQ1"

// Container header versions.  Readers accept both and reject anything else,
// so the format cannot drift silently; writers emit Version1 only for blobs
// embedded inside an outer hashed container (the outer hash covers them).
const (
	// Version1 is the original unhashed 24-byte header, which only blobs
	// embedded in a bundle carry.
	Version1 = 1
	// VersionHashed is the 56-byte header carrying a SHA-256 content hash
	// over every other byte of the container.
	VersionHashed = 2
)

// ErrHashMismatch is reported (wrapped) when a version-2 container's bytes
// do not hash to the content hash its header declares — a torn write, a
// corrupted cache entry, or a flipped bit in an mmap'd file.  Loads fail
// closed: no table of a mismatching container is ever handed out.
var ErrHashMismatch = errors.New("format: content hash mismatch")

// Object kinds: what the container as a whole serializes.  The kind is part
// of the header, so a loader knows how to interpret the sections before
// touching any of them.
const (
	// KindDNWA marks a serialized compiled deterministic NWA.
	KindDNWA = 1
	// KindNNWA marks a serialized compiled nondeterministic NWA.
	KindNNWA = 2
	// KindBundle marks a named multi-query set with one shared alphabet.
	KindBundle = 3
	// KindProduct marks a product-compiled query cluster: one shared
	// automaton plus the per-query accept bitmask it demuxes verdicts from.
	KindProduct = 4
)

// HashSize is the length in bytes of the content hash (SHA-256).  Callers
// outside this package type hashes as [format.HashSize]byte so the choice of
// hash function stays confined here.
const HashSize = sha256.Size

const (
	headerSize   = 24 // magic + version + kind + flags + count + reserved
	hashOffset   = 24 // where the VersionHashed header stores its SHA-256
	headerSizeV2 = hashOffset + HashSize
	dirEntrySize = 24 // tag + pad + offset + length
)

// headerLen returns the header length of the given version.  Both lengths
// are multiples of 8, so the directory (and with it every aligned section
// offset) starts aligned under either header.
func headerLen(version uint32) int {
	if version == VersionHashed {
		return headerSizeV2
	}
	return headerSize
}

// contentSum hashes a container's bytes with the hash field itself zeroed —
// the quantity a VersionHashed header stores.  The zeroed field keeps the
// definition circular-free while still covering the magic, version, kind,
// flags, directory, payloads, and padding: any other flipped bit changes
// the sum.
func contentSum(data []byte) [sha256.Size]byte {
	h := sha256.New()
	h.Write(data[:hashOffset])
	var zero [sha256.Size]byte
	h.Write(zero[:])
	h.Write(data[headerSizeV2:])
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// ErrUnhashed is reported when a version-1 container is offered as a
// top-level artifact: it carries no content hash, so there is nothing to
// cache, sign or serve it under.
//
//nwvet:oracle TestUnhashedContainersRefused and TestVerifyRejections match it with errors.Is
var ErrUnhashed = errors.New("format: unhashed version 1 container; a top-level artifact is a hashed version 2 bundle")

// NewArtifactReader is NewReader for a top-level artifact: the container
// must be a KindBundle with a VersionHashed header, whose content hash
// NewReader has already verified against the bytes.  It is the one place
// that decides what a server, cache, signer or vet accepts.
func NewArtifactReader(data []byte) (*Reader, error) {
	r, err := NewReader(data)
	if err != nil {
		return nil, err
	}
	if r.version != VersionHashed {
		return nil, ErrUnhashed
	}
	if r.kind != KindBundle {
		return nil, fmt.Errorf("format: container kind %d is not a bundle (kind %d)", r.kind, KindBundle)
	}
	return r, nil
}

// ContentHash returns a top-level artifact's verified content hash, the
// one value it is cached, signed and served under.  Bytes
// NewArtifactReader refuses are an error.
func ContentHash(data []byte) ([sha256.Size]byte, error) {
	r, err := NewArtifactReader(data)
	if err != nil {
		return [sha256.Size]byte{}, err
	}
	return r.hash, nil
}

// section is one pending payload inside a Writer.
type section struct {
	tag  uint32
	data []byte
}

// Writer accumulates tagged sections and serializes them behind the fixed
// header and directory.  Sections are emitted in Add order; repeated tags
// are allowed (the bundle encoding stores one section per query).
type Writer struct {
	kind    uint32
	version uint32
	secs    []section
}

// NewWriter starts a container of the given object kind.  The header
// defaults to Version1; top-level artifacts call SetVersion(VersionHashed)
// so Finish stamps the content hash, while blobs embedded inside a hashed
// container stay at Version1 (the outer hash covers their bytes).
func NewWriter(kind uint32) *Writer { return &Writer{kind: kind, version: Version1} }

// SetVersion selects the header version Finish emits (Version1 or
// VersionHashed).
func (w *Writer) SetVersion(v uint32) { w.version = v }

// Bytes appends a raw byte section.  The slice is retained until Finish.
func (w *Writer) Bytes(tag uint32, b []byte) {
	w.secs = append(w.secs, section{tag, b})
}

// Int32s appends a section holding the values in little-endian order.
func (w *Writer) Int32s(tag uint32, v []int32) {
	b := make([]byte, 4*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint32(b[4*i:], uint32(x))
	}
	w.Bytes(tag, b)
}

// Uint64s appends a section holding the values in little-endian order.
func (w *Writer) Uint64s(tag uint32, v []uint64) {
	b := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[8*i:], x)
	}
	w.Bytes(tag, b)
}

// Strings appends a section holding a string list: a uvarint count followed
// by one uvarint-length-prefixed byte string per entry.
func (w *Writer) Strings(tag uint32, v []string) {
	b := binary.AppendUvarint(nil, uint64(len(v)))
	for _, s := range v {
		b = binary.AppendUvarint(b, uint64(len(s)))
		b = append(b, s...)
	}
	w.Bytes(tag, b)
}

func align8(n int) int { return (n + 7) &^ 7 }

// Finish lays the container out: header, directory, then every section at
// an 8-byte-aligned offset.  The result is self-contained and deterministic
// for a given Add sequence.  A VersionHashed writer additionally stamps the
// SHA-256 content hash into the header as the final step, so the emitted
// bytes always verify.
func (w *Writer) Finish() []byte {
	hdr := headerLen(w.version)
	off := hdr + dirEntrySize*len(w.secs) // a multiple of 8 by construction
	offs := make([]int, len(w.secs))
	total := off
	for i, s := range w.secs {
		total = align8(total)
		offs[i] = total
		total += len(s.data)
	}
	out := make([]byte, align8(total))
	copy(out[0:4], magic)
	binary.LittleEndian.PutUint32(out[4:], w.version)
	binary.LittleEndian.PutUint32(out[8:], w.kind)
	// out[12:16], the flags word, is reserved and stays 0.
	binary.LittleEndian.PutUint32(out[16:], uint32(len(w.secs)))
	for i, s := range w.secs {
		e := out[hdr+dirEntrySize*i:]
		binary.LittleEndian.PutUint32(e, s.tag)
		binary.LittleEndian.PutUint64(e[8:], uint64(offs[i]))
		binary.LittleEndian.PutUint64(e[16:], uint64(len(s.data)))
		copy(out[offs[i]:], s.data)
	}
	if w.version == VersionHashed {
		sum := contentSum(out)
		copy(out[hashOffset:headerSizeV2], sum[:])
	}
	return out
}

// Reader parses a container header and directory and hands out section
// payloads as subslices of the input — the input may be an mmap'd region,
// and nothing here copies it.
type Reader struct {
	kind    uint32
	version uint32
	hash    [sha256.Size]byte // meaningful only when version == VersionHashed
	secs    []section         // payloads alias the input (no copy)
}

// NewReader validates the header and the directory (magic, version, every
// offset/length in bounds and 8-byte aligned) without touching any payload
// — except that a VersionHashed container's bytes are re-hashed against the
// header's content hash first, so a corrupted container is rejected with
// ErrHashMismatch before a single section is handed out.
func NewReader(data []byte) (*Reader, error) {
	if len(data) < headerSize {
		return nil, fmt.Errorf("format: %d bytes is shorter than the %d-byte header", len(data), headerSize)
	}
	if string(data[0:4]) != magic {
		return nil, fmt.Errorf("format: bad magic %q", data[0:4])
	}
	r := &Reader{
		version: binary.LittleEndian.Uint32(data[4:]),
		kind:    binary.LittleEndian.Uint32(data[8:]),
	}
	switch r.version {
	case Version1:
	case VersionHashed:
		if len(data) < headerSizeV2 {
			return nil, fmt.Errorf("format: %d bytes is shorter than the %d-byte hashed header", len(data), headerSizeV2)
		}
		copy(r.hash[:], data[hashOffset:headerSizeV2])
		if sum := contentSum(data); sum != r.hash {
			return nil, fmt.Errorf("%w: header declares %x, container hashes to %x", ErrHashMismatch, r.hash, sum)
		}
	default:
		return nil, fmt.Errorf("format: unsupported version %d (want %d or %d)", r.version, Version1, VersionHashed)
	}
	hdr := headerLen(r.version)
	count := binary.LittleEndian.Uint32(data[16:])
	if uint64(count) > uint64(len(data)-hdr)/dirEntrySize {
		return nil, fmt.Errorf("format: directory claims %d sections, input holds at most %d",
			count, (len(data)-hdr)/dirEntrySize)
	}
	r.secs = make([]section, count)
	for i := range r.secs {
		e := data[hdr+dirEntrySize*i:]
		tag := binary.LittleEndian.Uint32(e)
		off := binary.LittleEndian.Uint64(e[8:])
		length := binary.LittleEndian.Uint64(e[16:])
		if off%8 != 0 {
			return nil, fmt.Errorf("format: section %d (tag %d) at unaligned offset %d", i, tag, off)
		}
		if off > uint64(len(data)) || length > uint64(len(data))-off {
			return nil, fmt.Errorf("format: section %d (tag %d) [%d,+%d) exceeds the %d input bytes",
				i, tag, off, length, len(data))
		}
		r.secs[i] = section{tag, data[off : off+length : off+length]}
	}
	return r, nil
}

// Kind returns the object kind from the header.
func (r *Reader) Kind() uint32 { return r.kind }

// ContentHash returns the verified content hash from the header of a
// reader NewArtifactReader returned (zero for a Version1 container).
func (r *Reader) ContentHash() [sha256.Size]byte { return r.hash }

// Section returns the payload of the first section carrying the tag.
func (r *Reader) Section(tag uint32) ([]byte, bool) {
	for _, s := range r.secs {
		if s.tag == tag {
			return s.data, true
		}
	}
	return nil, false
}

// Sections returns the payloads of every section carrying the tag, in
// directory order.
func (r *Reader) Sections(tag uint32) [][]byte {
	var out [][]byte
	for _, s := range r.secs {
		if s.tag == tag {
			out = append(out, s.data)
		}
	}
	return out
}

// hostLittleEndian reports whether reinterpreting byte sections as typed
// slices yields little-endian semantics — true on every platform the module
// targets; the decoders fall back to an explicit copy elsewhere.
var hostLittleEndian = func() bool {
	x := uint16(0x0102)
	return *(*byte)(unsafe.Pointer(&x)) == 0x02
}()

// Int32s decodes a section as little-endian int32 values.  With zeroCopy the
// returned slice aliases b when the platform and alignment allow it (the
// mmap fast path); otherwise — and always without zeroCopy — the values are
// copied out.
func Int32s(b []byte, zeroCopy bool) ([]int32, error) {
	if len(b)%4 != 0 {
		return nil, fmt.Errorf("format: int32 section length %d is not a multiple of 4", len(b))
	}
	n := len(b) / 4
	if n == 0 {
		return nil, nil
	}
	if zeroCopy && hostLittleEndian && uintptr(unsafe.Pointer(&b[0]))%4 == 0 {
		return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), n), nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out, nil
}

// Uint64s decodes a section as little-endian uint64 values, aliasing b under
// the same conditions as Int32s.
func Uint64s(b []byte, zeroCopy bool) ([]uint64, error) {
	if len(b)%8 != 0 {
		return nil, fmt.Errorf("format: uint64 section length %d is not a multiple of 8", len(b))
	}
	n := len(b) / 8
	if n == 0 {
		return nil, nil
	}
	if zeroCopy && hostLittleEndian && uintptr(unsafe.Pointer(&b[0]))%8 == 0 {
		return unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), n), nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	return out, nil
}

// Strings decodes a string-list section written by Writer.Strings.  Every
// length is validated against the remaining input before any allocation, so
// a corrupt count cannot trigger an oversized make.
func Strings(b []byte) ([]string, error) {
	n, sz := binary.Uvarint(b)
	if sz <= 0 {
		return nil, fmt.Errorf("format: string list has no count")
	}
	b = b[sz:]
	if n > uint64(len(b)) {
		return nil, fmt.Errorf("format: string list claims %d entries in %d bytes", n, len(b))
	}
	out := make([]string, 0, n)
	for i := uint64(0); i < n; i++ {
		l, sz := binary.Uvarint(b)
		if sz <= 0 || l > uint64(len(b)-sz) {
			return nil, fmt.Errorf("format: string %d overruns its section", i)
		}
		b = b[sz:]
		out = append(out, string(b[:l]))
		b = b[l:]
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("format: %d trailing bytes after string list", len(b))
	}
	return out, nil
}
