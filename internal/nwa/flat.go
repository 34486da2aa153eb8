package nwa

import (
	"repro/internal/alphabet"
	"repro/internal/nestedword"
	"repro/internal/word"
)

// Flat nested word automata (Section 3.3, Theorem 2): an NWA is flat if the
// hierarchical component of its call-transition function always propagates
// the initial state, δ^h_c(q, a) = q0, so no information crosses the
// hierarchical edges.  Flat NWAs are exactly deterministic word automata
// over the tagged alphabet Σ̂: Theorem 2 states that a nested word language
// is accepted by a flat NWA with s states iff the corresponding tagged word
// language is accepted by a DFA with s states.

// IsFlat reports whether the deterministic automaton is flat: for every
// state q and symbol a, δ^h_c(q, a) = q0.  The implicit dead state added by
// the builder is ignored: it is absorbing, so what it propagates along
// hierarchical edges never influences acceptance.
func (d *DNWA) IsFlat() bool {
	for q := 0; q < d.num; q++ {
		if q == d.dead {
			continue
		}
		for s := 0; s < d.alpha.Size(); s++ {
			lin, hier := d.StepCall(q, d.alpha.Symbol(s))
			// Undefined call transitions send both components to the dead
			// state; since the linear run dies anyway, the hierarchical
			// component is irrelevant there.
			if hier != d.start && !(lin == d.dead && hier == d.dead) {
				return false
			}
		}
	}
	return true
}

// taggedCall renders a symbol of Σ as the call letter ⟨a of the tagged
// alphabet Σ̂ used by the word-automaton view of flat NWAs.
func taggedCall(sym string) string { return "<" + sym }

// taggedInternal renders a symbol of Σ as its internal letter in the tagged
// alphabet Σ̂ (the symbol itself).
func taggedInternal(sym string) string { return sym }

// taggedReturn renders a symbol of Σ as the return letter a⟩ of the tagged
// alphabet Σ̂.
func taggedReturn(sym string) string { return sym + ">" }

// TaggedAlphabet returns the tagged alphabet Σ̂ = {⟨a, a, a⟩ : a ∈ Σ} in the
// string encoding used by FlatToDFA / FlatFromDFA.
func TaggedAlphabet(alpha *alphabet.Alphabet) *alphabet.Alphabet {
	syms := make([]string, 0, 3*alpha.Size())
	for _, a := range alpha.Symbols() {
		syms = append(syms, taggedCall(a), taggedInternal(a), taggedReturn(a))
	}
	return alphabet.New(syms...)
}

// TaggedWord encodes a nested word as a word over the tagged alphabet in the
// string encoding of TaggedAlphabet (nw_w of Section 2.2).
func TaggedWord(n *nestedword.NestedWord) []string {
	out := make([]string, n.Len())
	for i := 0; i < n.Len(); i++ {
		p := n.At(i)
		switch p.Kind {
		case nestedword.Call:
			out[i] = taggedCall(p.Symbol)
		case nestedword.Return:
			out[i] = taggedReturn(p.Symbol)
		default:
			out[i] = taggedInternal(p.Symbol)
		}
	}
	return out
}

// FlatFromDFA interprets a deterministic word automaton over the tagged
// alphabet Σ̂ as a flat NWA over Σ with the same number of states
// (Theorem 2, right-to-left): δc(q, a) = (δ(q, ⟨a), q0), δi(q, a) = δ(q, a),
// δr(q, q', a) = δ(q, a⟩).
func FlatFromDFA(dfa *word.DFA, alpha *alphabet.Alphabet) *DNWA {
	n := dfa.NumStates()
	b := NewDNWABuilder(alpha, n)
	b.SetStart(dfa.Start())
	for q := 0; q < n; q++ {
		if dfa.IsAccepting(q) {
			b.SetAccept(q)
		}
		for _, sym := range alpha.Symbols() {
			if to, ok := dfa.Step(q, taggedCall(sym)); ok {
				b.Call(q, sym, to, dfa.Start())
			}
			if to, ok := dfa.Step(q, taggedInternal(sym)); ok {
				b.Internal(q, sym, to)
			}
			if to, ok := dfa.Step(q, taggedReturn(sym)); ok {
				for hier := 0; hier <= n; hier++ {
					b.Return(q, hier, sym, to)
				}
			}
		}
	}
	return b.Build()
}

// FlatToDFA converts a flat NWA into the equivalent deterministic word
// automaton over the tagged alphabet (Theorem 2, left-to-right).  The
// automaton need not literally satisfy IsFlat: the conversion simply ignores
// the hierarchical components, so it is only language-preserving for flat
// automata.
func FlatToDFA(d *DNWA) *word.DFA {
	tagged := TaggedAlphabet(d.alpha)
	b := word.NewDFABuilder(tagged, d.num)
	b.SetStart(d.start)
	for q := 0; q < d.num; q++ {
		if d.accept[q] {
			b.SetAccept(q)
		}
		for _, sym := range d.alpha.Symbols() {
			lin, _ := d.StepCall(q, sym)
			b.AddTransition(q, taggedCall(sym), lin)
			b.AddTransition(q, taggedInternal(sym), d.StepInternal(q, sym))
			b.AddTransition(q, taggedReturn(sym), d.StepReturn(q, d.start, sym))
		}
	}
	return b.Build()
}

// FlatFromWordDFAOverPlainAlphabet lifts a DFA over Σ (not Σ̂) to a flat NWA
// that runs the DFA on the underlying linear sequence, ignoring the
// call/return tags entirely.  It is used by query compilation: the
// linear-order queries of the paper's introduction constrain only the linear
// order of symbols.
func FlatFromWordDFAOverPlainAlphabet(dfa *word.DFA, alpha *alphabet.Alphabet) *DNWA {
	n := dfa.NumStates()
	b := NewDNWABuilder(alpha, n)
	b.SetStart(dfa.Start())
	for q := 0; q < n; q++ {
		if dfa.IsAccepting(q) {
			b.SetAccept(q)
		}
		for _, sym := range alpha.Symbols() {
			to, ok := dfa.Step(q, sym)
			if !ok {
				continue
			}
			b.Call(q, sym, to, dfa.Start())
			b.Internal(q, sym, to)
			for hier := 0; hier <= n; hier++ {
				b.Return(q, hier, sym, to)
			}
		}
	}
	return b.Build()
}
