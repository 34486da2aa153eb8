package query_test

import (
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/query"
	"repro/internal/query/plan"
)

// allocBytes reports the heap bytes one call of f allocates: the least of
// three calls, so a stray allocation elsewhere in the process does not
// count.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	least := ^uint64(0)
	for range 3 {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestDecodeAllocBoundedByInput pins that decoding allocates at most a small
// multiple of its input, so a server may decode a bundle before it checks
// the bundle's signature.  A bundle of 16 empty legacy sparse return tables
// over 2048 states each is refused with ErrLegacyLayout by every entry,
// allocating less than its own length; a decoder that factored the tables
// on load allocated a 2048² row-ID table per query from it.  Accepted
// inputs — a factored DNWA, the factored planned fixture and the planned
// batch-reload bundle — decode, copied and mapped, allocating at most twice
// their length.
func TestDecodeAllocBoundedByInput(t *testing.T) {
	hostile := query.EmptySparseBundle(16, 2048)
	path := filepath.Join(t.TempDir(), "hostile.nwq")
	if err := os.WriteFile(path, hostile, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, entry := range []struct {
		name   string
		decode func() error
	}{
		{"UnmarshalBundle", func() error { _, err := query.UnmarshalBundle(hostile); return err }},
		{"OpenBundle", func() error { _, err := query.OpenBundle(path); return err }},
		{"VetBytes", func() error { _, err := query.VetBytes(hostile); return err }},
	} {
		var err error
		n := allocBytes(func() { err = entry.decode() })
		if !errors.Is(err, query.ErrLegacyLayout) {
			t.Errorf("%s: got %v, want ErrLegacyLayout", entry.name, err)
		}
		if n >= uint64(len(hostile)) {
			t.Errorf("%s: refusing the %d-byte sparse bundle allocated %d B, want less than its length", entry.name, len(hostile), n)
		}
		t.Logf("%s: refused %d B, allocated %d B", entry.name, len(hostile), n)
	}

	dnwa, err := os.ReadFile(filepath.Join("testdata", "golden_dnwa_factored.nwq"))
	if err != nil {
		t.Fatal(err)
	}
	planned, err := os.ReadFile(filepath.Join("testdata", "golden_planned_factored.nwq"))
	if err != nil {
		t.Fatal(err)
	}
	shape, _, err := plan.Bundle(batchShape(t), plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range []struct {
		name   string
		data   []byte
		decode func(data []byte, mapped bool) error
	}{
		{"golden_dnwa_factored.nwq", dnwa, func(data []byte, mapped bool) error {
			_, err := query.DecodeQuery(data, mapped)
			return err
		}},
		{"golden_planned_factored.nwq", planned, decodeBundle},
		{"planned batch-reload shape", shape.Marshal(), decodeBundle},
	} {
		for _, mapped := range []bool{false, true} {
			var err error
			n := allocBytes(func() { err = in.decode(in.data, mapped) })
			if err != nil {
				t.Fatalf("%s (mapped %v): %v", in.name, mapped, err)
			}
			if n > 2*uint64(len(in.data)) {
				t.Errorf("%s (mapped %v): decoding %d B allocated %d B, want at most twice the input", in.name, mapped, len(in.data), n)
			}
			t.Logf("%s (mapped %v): decoded %d B, allocated %d B", in.name, mapped, len(in.data), n)
		}
	}
}

func decodeBundle(data []byte, mapped bool) error {
	_, err := query.DecodeBundle(data, mapped)
	return err
}
