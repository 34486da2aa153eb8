// Package bitset provides fixed-width bit rows packed into uint64 words —
// the representation behind a product automaton's per-query accept masks
// and the engine's verdict demux row.  A Row stands for a subset of
// 0..n-1; a union runs word-wise, 64 elements per machine operation.
//
// Rows are plain slices, so a matrix of rows can live in one flat []uint64
// allocation and be re-sliced without copying; no operation here allocates.
package bitset

// Words returns the number of 64-bit words needed to hold n bits.
func Words(n int) int { return (n + 63) >> 6 }

// Row is a fixed-width set of small non-negative integers, bit i of word
// i/64 standing for element i.  All binary operations require equal widths;
// they iterate min(len) words, so the caller is responsible for slicing
// rows of one width from a shared backing array.
type Row []uint64

// New returns a zeroed row wide enough for elements 0..n-1.
func New(n int) Row { return make(Row, Words(n)) }

// Set adds element i to the row.
func (r Row) Set(i int) { r[i>>6] |= 1 << (uint(i) & 63) }

// Has reports whether element i is in the row.
func (r Row) Has(i int) bool { return r[i>>6]&(1<<(uint(i)&63)) != 0 }

// Zero clears every element, keeping the width.
func (r Row) Zero() {
	for i := range r {
		r[i] = 0
	}
}

// Or adds every element of other to r (r |= other).
//
//nwvet:hotpath
func (r Row) Or(other Row) {
	for i, w := range other {
		r[i] |= w
	}
}

// Any reports whether the row is non-empty.
func (r Row) Any() bool {
	for _, w := range r {
		if w != 0 {
			return true
		}
	}
	return false
}

// Slab returns row i of a flat table of equal-width rows (w words each)
// without copying: table[i*w : (i+1)*w].  A "word slab" — one []uint64
// backing many rows — is how a product automaton stores its per-state
// accept masks, and because a Row is a plain slice the same view works
// whether the slab was built in memory or points into a serialized query
// set mapped read-only from disk (see internal/query/qset.go).
func Slab(table []uint64, i, w int) Row {
	return Row(table[i*w : i*w+w : i*w+w])
}
