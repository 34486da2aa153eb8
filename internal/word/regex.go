package word

import "repro/internal/alphabet"

// Regex is a regular expression over an arbitrary (string-symbol) alphabet,
// built with the combinators below and compiled to an NFA by Thompson's
// construction.  The motivating query of the paper's introduction,
// Σ*p1Σ*...pnΣ*, is LinearOrderQuery.
type Regex interface {
	// compile adds the expression's states to the NFA and returns its entry
	// and exit states; the expression's language is the set of words
	// labelling paths from entry to exit.
	compile(n *NFA) (entry, exit int)
}

type symbolRegex struct{ sym string }
type anySymbolRegex struct{}
type concatRegex struct{ parts []Regex }
type starRegex struct{ inner Regex } // zero or more repetitions (Kleene star)

// Symbol matches the single-symbol word sym.
func Symbol(sym string) Regex { return symbolRegex{sym: sym} }

// AnySymbol matches any single symbol of the alphabet (the paper's Σ).
func AnySymbol() Regex { return anySymbolRegex{} }

// Concat matches the concatenation of its parts; Concat() matches only the
// empty word.
func Concat(parts ...Regex) Regex { return concatRegex{parts: parts} }

// SigmaStar matches every word over the alphabet (the paper's Σ*).
func SigmaStar() Regex { return starRegex{inner: AnySymbol()} }

// LinearOrderQuery is the introduction's query Σ* p1 Σ* ... pn Σ*: the
// patterns appear in the document in that linear order.  Each pattern is a
// single symbol, matching the paper's formulation.
func LinearOrderQuery(patterns ...string) Regex {
	parts := []Regex{SigmaStar()}
	for _, p := range patterns {
		parts = append(parts, Symbol(p), SigmaStar())
	}
	return Concat(parts...)
}

func (r symbolRegex) compile(n *NFA) (int, int) {
	entry, exit := n.AddState(), n.AddState()
	n.AddTransition(entry, r.sym, exit)
	return entry, exit
}

func (anySymbolRegex) compile(n *NFA) (int, int) {
	entry, exit := n.AddState(), n.AddState()
	for _, sym := range n.alpha.Symbols() {
		n.AddTransition(entry, sym, exit)
	}
	return entry, exit
}

func (r concatRegex) compile(n *NFA) (int, int) {
	if len(r.parts) == 0 {
		entry, exit := n.AddState(), n.AddState()
		n.addEpsilon(entry, exit)
		return entry, exit
	}
	entry, exit := r.parts[0].compile(n)
	for _, part := range r.parts[1:] {
		e, x := part.compile(n)
		n.addEpsilon(exit, e)
		exit = x
	}
	return entry, exit
}

func (r starRegex) compile(n *NFA) (int, int) {
	entry, exit := n.AddState(), n.AddState()
	e, x := r.inner.compile(n)
	n.addEpsilon(entry, e)
	n.addEpsilon(x, exit)
	n.addEpsilon(entry, exit)
	n.addEpsilon(x, e)
	return entry, exit
}

// compileRegex compiles the expression to an NFA over the given alphabet
// using Thompson's construction.
func compileRegex(r Regex, alpha *alphabet.Alphabet) *NFA {
	n := NewNFA(alpha, 0)
	entry, exit := r.compile(n)
	n.AddStart(entry)
	n.AddAccept(exit)
	return n
}

// CompileRegexDFA compiles the expression to a minimal DFA.
func CompileRegexDFA(r Regex, alpha *alphabet.Alphabet) *DFA {
	return compileRegex(r, alpha).determinize().Minimize()
}
