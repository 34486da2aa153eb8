package nestedword

import (
	"fmt"
	"strings"
)

// This file implements the tagged-word encoding of Section 2.2: the bijection
// nw_w : NW(Σ) → Σ̂* and its inverse w_nw, plus the path encoding
// path : Σ* → NW(Σ) and a textual parser/printer for tagged words.

// TaggedSymbol is a single letter of the tagged alphabet Σ̂: a plain symbol
// together with the tag saying whether it is a call ⟨a, an internal a, or a
// return a⟩.
type TaggedSymbol struct {
	Symbol string
	Kind   Kind
}

// String renders the tagged symbol in the notation of Figure 1.
func (t TaggedSymbol) String() string {
	switch t.Kind {
	case Call:
		return "<" + t.Symbol
	case Return:
		return t.Symbol + ">"
	default:
		return t.Symbol
	}
}

// ToTagged implements nw_w: it encodes the nested word as a word over the
// tagged alphabet Σ̂.
func (n *NestedWord) ToTagged() []TaggedSymbol {
	out := make([]TaggedSymbol, len(n.positions))
	for i, p := range n.positions {
		out[i] = TaggedSymbol{Symbol: p.Symbol, Kind: p.Kind}
	}
	return out
}

// FromTagged implements w_nw: it decodes a word over the tagged alphabet Σ̂
// into the unique nested word it represents.
func FromTagged(word []TaggedSymbol) *NestedWord {
	ps := make([]Position, len(word))
	for i, t := range word {
		ps[i] = Position{Symbol: t.Symbol, Kind: t.Kind}
	}
	return New(ps...)
}

// Path implements the path encoding of Section 2.2:
// path(a1...aℓ) = w_nw(⟨a1 ... ⟨aℓ aℓ⟩ ... a1⟩), the rooted nested word of
// depth ℓ whose hierarchical structure is a single downward path labelled by
// the word.
func Path(symbols ...string) *NestedWord {
	ps := make([]Position, 0, 2*len(symbols))
	for _, s := range symbols {
		ps = append(ps, Position{Symbol: s, Kind: Call})
	}
	for i := len(symbols) - 1; i >= 0; i-- {
		ps = append(ps, Position{Symbol: symbols[i], Kind: Return})
	}
	return New(ps...)
}

// Parse parses the textual tagged notation used throughout this library and
// in Figure 1 of the paper: whitespace-separated tokens where "<a" is an
// a-labelled call, "a>" an a-labelled return, and "a" an a-labelled internal.
// Symbols may be arbitrary non-empty strings not containing '<', '>' or
// whitespace.  As a convenience, "<a>" abbreviates the leaf "<a a>"
// (Section 2.3).
func Parse(s string) (*NestedWord, error) {
	fields := strings.Fields(s)
	var ps []Position
	for _, tok := range fields {
		switch {
		case len(tok) >= 3 && strings.HasPrefix(tok, "<") && strings.HasSuffix(tok, ">"):
			sym := tok[1 : len(tok)-1]
			if err := validateSymbol(sym, tok); err != nil {
				return nil, err
			}
			ps = append(ps, Position{Symbol: sym, Kind: Call}, Position{Symbol: sym, Kind: Return})
		case strings.HasPrefix(tok, "<"):
			sym := tok[1:]
			if err := validateSymbol(sym, tok); err != nil {
				return nil, err
			}
			ps = append(ps, Position{Symbol: sym, Kind: Call})
		case strings.HasSuffix(tok, ">"):
			sym := tok[:len(tok)-1]
			if err := validateSymbol(sym, tok); err != nil {
				return nil, err
			}
			ps = append(ps, Position{Symbol: sym, Kind: Return})
		default:
			if err := validateSymbol(tok, tok); err != nil {
				return nil, err
			}
			ps = append(ps, Position{Symbol: tok, Kind: Internal})
		}
	}
	return New(ps...), nil
}

// MustParse is Parse that panics on error; it is intended for tests,
// examples, and literals in benchmarks.
func MustParse(s string) *NestedWord {
	n, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return n
}

func validateSymbol(sym, tok string) error {
	if sym == "" {
		return fmt.Errorf("nestedword: empty symbol in token %q", tok)
	}
	if strings.ContainsAny(sym, "<>") {
		return fmt.Errorf("nestedword: symbol %q in token %q contains a reserved tag character", sym, tok)
	}
	return nil
}
