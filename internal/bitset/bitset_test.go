package bitset

import (
	"math/rand"
	"testing"
)

// edgeWidths are both sides of every word boundary plus the single-bit and
// two-word cases.
var edgeWidths = []int{1, 63, 64, 65, 128}

func TestWords(t *testing.T) {
	cases := map[int]int{0: 0, 1: 1, 63: 1, 64: 1, 65: 2, 128: 2, 129: 3, 256: 4}
	for n, want := range cases {
		if got := Words(n); got != want {
			t.Errorf("Words(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestSetHasUnset(t *testing.T) {
	for _, n := range edgeWidths {
		r := New(n)
		if r.Any() {
			t.Fatalf("width %d: fresh row is not empty", n)
		}
		for i := 0; i < n; i++ {
			if r.Has(i) {
				t.Fatalf("width %d: empty row has element %d", n, i)
			}
			r.Set(i)
			if !r.Has(i) {
				t.Fatalf("width %d: Set(%d) did not stick", n, i)
			}
		}
		r.Zero()
		if r.Any() {
			t.Fatalf("width %d: row not empty after Zero", n)
		}
	}
}

func TestZeroKeepsWidth(t *testing.T) {
	r := New(65)
	for i := 0; i < 65; i++ {
		r.Set(i)
	}
	r.Zero()
	if len(r) != Words(65) {
		t.Fatalf("Zero changed the width: %d words", len(r))
	}
	if r.Any() {
		t.Fatal("Zero left elements behind")
	}
}

// TestSetOperations cross-checks Or and Any against a map-based reference on
// random rows at every edge width.
func TestSetOperations(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range edgeWidths {
		for trial := 0; trial < 50; trial++ {
			a, b := New(n), New(n)
			inA, inB := map[int]bool{}, map[int]bool{}
			for i := 0; i < n; i++ {
				if rng.Intn(3) == 0 {
					a.Set(i)
					inA[i] = true
				}
				if rng.Intn(3) == 0 {
					b.Set(i)
					inB[i] = true
				}
			}
			union := New(n)
			union.Or(a)
			union.Or(b)
			if union.Any() != (len(inA)+len(inB) > 0) {
				t.Fatalf("width %d: Any = %v on a union of %d and %d elements", n, union.Any(), len(inA), len(inB))
			}
			for i := 0; i < n; i++ {
				if union.Has(i) != (inA[i] || inB[i]) {
					t.Fatalf("width %d: union wrong at %d", n, i)
				}
			}
		}
	}
}

// TestSlab checks that Slab views one row of a flat table in place.
func TestSlab(t *testing.T) {
	for _, n := range edgeWidths {
		w := Words(n)
		table := make([]uint64, 3*w)
		Slab(table, 1, w).Set(n - 1)
		for i := 0; i < 3; i++ {
			row := Slab(table, i, w)
			if len(row) != w || cap(row) != w {
				t.Fatalf("width %d: row %d has len %d cap %d, want %d", n, i, len(row), cap(row), w)
			}
			if row.Has(n-1) != (i == 1) || row.Any() != (i == 1) {
				t.Fatalf("width %d: Set through row 1's slab leaked into row %d", n, i)
			}
		}
	}
}

func TestZeroWidthRow(t *testing.T) {
	r := New(0)
	if len(r) != 0 || r.Any() {
		t.Fatal("zero-width row should be empty")
	}
	r.Zero()
	r.Or(New(0))
	if r.Any() {
		t.Fatal("zero-width row gained an element")
	}
}
