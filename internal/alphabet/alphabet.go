// Package alphabet provides symbol interning shared by every automaton
// package in this repository.
//
// All automata (word, tree, nested-word, and their pushdown variants) are
// defined over a finite alphabet Σ of symbols.  The experiments of the paper
// measure automaton sizes (numbers of states), so the automaton packages use
// dense integer-indexed transition tables; this package maps symbol strings
// to dense indices and back.
package alphabet

import (
	"fmt"
	"strings"
)

// Alphabet is an immutable, ordered finite set of symbols.  The zero value
// is the empty alphabet.
type Alphabet struct {
	symbols []string
	index   map[string]int
}

// New builds an alphabet from the given symbols.  Duplicates are collapsed
// (keeping the first occurrence's position); the order of first occurrence
// is the index order.
func New(symbols ...string) *Alphabet {
	a := &Alphabet{index: make(map[string]int, len(symbols))}
	for _, s := range symbols {
		if _, ok := a.index[s]; ok {
			continue
		}
		a.index[s] = len(a.symbols)
		a.symbols = append(a.symbols, s)
	}
	return a
}

// Size returns |Σ|.
func (a *Alphabet) Size() int { return len(a.symbols) }

// Symbols returns the symbols in index order (a copy).
func (a *Alphabet) Symbols() []string { return append([]string(nil), a.symbols...) }

// Symbol returns the symbol with the given index.  It panics if the index is
// out of range, mirroring slice indexing.
func (a *Alphabet) Symbol(i int) string { return a.symbols[i] }

// Index returns the index of the symbol and whether it belongs to the
// alphabet.
func (a *Alphabet) Index(sym string) (int, bool) {
	i, ok := a.index[sym]
	return i, ok
}

// IndexBytes returns the index of the symbol spelled by b and whether it
// belongs to the alphabet.  The map lookup is keyed by string(b) in the
// form the compiler compiles without materializing the string, so hot
// tokenizing loops can intern a scratch buffer allocation-free; pair a hit
// with Symbol(i) to obtain a canonical string for the label.
func (a *Alphabet) IndexBytes(b []byte) (int, bool) {
	i, ok := a.index[string(b)]
	return i, ok
}

// MustIndex returns the index of the symbol and panics when the symbol is
// not part of the alphabet.  It is intended for code paths where membership
// has already been validated.
func (a *Alphabet) MustIndex(sym string) int {
	i, ok := a.index[sym]
	if !ok {
		panic(fmt.Sprintf("alphabet: symbol %q not in alphabet {%s}", sym, strings.Join(a.symbols, ",")))
	}
	return i
}

// Equal reports whether two alphabets contain the same symbols in the same
// order.
func (a *Alphabet) Equal(b *Alphabet) bool {
	if a.Size() != b.Size() {
		return false
	}
	for i, s := range a.symbols {
		if b.symbols[i] != s {
			return false
		}
	}
	return true
}

// String renders the alphabet as {s1,s2,...}.
func (a *Alphabet) String() string {
	return "{" + strings.Join(a.symbols, ",") + "}"
}
