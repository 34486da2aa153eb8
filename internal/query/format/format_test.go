package format

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// TestWriterReaderRoundTrip checks tags, order, repeated tags, typed
// sections, and 8-byte section alignment through a full write/read cycle.
func TestWriterReaderRoundTrip(t *testing.T) {
	w := NewWriter(KindBundle)
	w.Int32s(1, []int32{-1, 0, 7, 1 << 30})
	w.Uint64s(2, []uint64{0, ^uint64(0), 42})
	w.Strings(3, []string{"", "a", "nested words"})
	w.Bytes(4, []byte{9})     // length 1: the next section must still align
	w.Bytes(4, []byte("two")) // repeated tag
	data := w.Finish()

	r, err := NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	if r.Kind() != KindBundle {
		t.Fatalf("kind = %d", r.Kind())
	}
	if flags := binary.LittleEndian.Uint32(data[12:]); flags != 0 {
		t.Fatalf("reserved flags word = %d, want 0", flags)
	}
	for _, zeroCopy := range []bool{false, true} {
		sec, ok := r.Section(1)
		if !ok {
			t.Fatal("section 1 missing")
		}
		v, err := Int32s(sec, zeroCopy)
		if err != nil {
			t.Fatal(err)
		}
		if len(v) != 4 || v[0] != -1 || v[3] != 1<<30 {
			t.Fatalf("int32s (zeroCopy=%v) = %v", zeroCopy, v)
		}
		sec, _ = r.Section(2)
		u, err := Uint64s(sec, zeroCopy)
		if err != nil {
			t.Fatal(err)
		}
		if len(u) != 3 || u[1] != ^uint64(0) {
			t.Fatalf("uint64s (zeroCopy=%v) = %v", zeroCopy, u)
		}
	}
	sec, _ := r.Section(3)
	s, err := Strings(sec)
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != 3 || s[2] != "nested words" {
		t.Fatalf("strings = %v", s)
	}
	blobs := r.Sections(4)
	if len(blobs) != 2 || !bytes.Equal(blobs[0], []byte{9}) || !bytes.Equal(blobs[1], []byte("two")) {
		t.Fatalf("repeated sections = %v", blobs)
	}
	if _, ok := r.Section(99); ok {
		t.Fatal("nonexistent tag found")
	}
}

// TestZeroCopyAliasing pins that the zero-copy views really alias the input
// when aligned, and that the copying mode really does not.
func TestZeroCopyAliasing(t *testing.T) {
	w := NewWriter(KindDNWA)
	w.Int32s(1, []int32{1, 2, 3})
	data := w.Finish()
	r, err := NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	sec, _ := r.Section(1)
	view, err := Int32s(sec, true)
	if err != nil {
		t.Fatal(err)
	}
	copied, err := Int32s(sec, false)
	if err != nil {
		t.Fatal(err)
	}
	sec[0] = 0xFF // mutate the backing bytes
	if view[0] != 0xFF {
		t.Error("zero-copy view did not alias the input")
	}
	if copied[0] != 1 {
		t.Error("copying mode aliased the input")
	}
}

// TestReaderRejectsCorruptHeaders feeds malformed containers to NewReader
// and the typed decoders: every one must error, never panic.
func TestReaderRejectsCorruptHeaders(t *testing.T) {
	w := NewWriter(KindDNWA)
	w.Int32s(1, []int32{1, 2, 3})
	valid := w.Finish()

	mutate := func(f func([]byte)) []byte {
		b := bytes.Clone(valid)
		f(b)
		return b
	}
	cases := map[string][]byte{
		"empty":             {},
		"short header":      valid[:10],
		"bad magic":         mutate(func(b []byte) { b[0] = 'x' }),
		"bad version":       mutate(func(b []byte) { binary.LittleEndian.PutUint32(b[4:], 9) }),
		"huge count":        mutate(func(b []byte) { binary.LittleEndian.PutUint32(b[16:], 1<<30) }),
		"offset overrun":    mutate(func(b []byte) { binary.LittleEndian.PutUint64(b[32:], 1<<40) }),
		"length overrun":    mutate(func(b []byte) { binary.LittleEndian.PutUint64(b[40:], 1<<40) }),
		"unaligned offset":  mutate(func(b []byte) { binary.LittleEndian.PutUint64(b[32:], 49) }),
		"truncated payload": valid[:len(valid)-8],
	}
	for name, b := range cases {
		if _, err := NewReader(b); err == nil {
			t.Errorf("%s: NewReader succeeded", name)
		}
	}
	if _, err := Int32s([]byte{1, 2, 3}, false); err == nil {
		t.Error("Int32s accepted a length not divisible by 4")
	}
	if _, err := Uint64s([]byte{1, 2, 3, 4}, false); err == nil {
		t.Error("Uint64s accepted a length not divisible by 8")
	}
	if _, err := Strings([]byte{}); err == nil {
		t.Error("Strings accepted an empty section")
	}
	if _, err := Strings([]byte{200}); err == nil {
		t.Error("Strings accepted a truncated count")
	}
	if _, err := Strings(binary.AppendUvarint(nil, 1<<40)); err == nil {
		t.Error("Strings accepted an oversized count")
	}
}
