// Package nestedword implements nested words as defined in Section 2 of
// "Marrying Words and Trees" (Alur, PODS 2007).
//
// A nested word over an alphabet Σ is a linear sequence of labelled
// positions together with a matching relation of hierarchical edges
// connecting calls to returns.  Edges never cross, but they may be pending:
// a call without a matching return (i ; +∞) or a return without a matching
// call (−∞ ; j).  Every word over the tagged alphabet
// Σ̂ = {⟨a, a, a⟩ : a ∈ Σ} corresponds to exactly one nested word, so this
// package represents a nested word as a sequence of (symbol, kind) pairs and
// recovers the matching relation with a single stack scan.
//
// Positions are 0-based throughout the Go API.  The paper uses 1-based
// positions; conversion is a matter of adding one.
package nestedword

import (
	"fmt"
	"strings"
)

// Kind classifies a position of a nested word as a call, an internal
// position, or a return (Section 2.1).
type Kind uint8

const (
	// Internal positions carry no hierarchical edge.
	Internal Kind = iota
	// Call positions are the sources of hierarchical edges.
	Call
	// Return positions are the targets of hierarchical edges.
	Return
)

// String returns a human-readable name for the kind.
func (k Kind) String() string {
	switch k {
	case Internal:
		return "internal"
	case Call:
		return "call"
	case Return:
		return "return"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Pending is the sentinel used in the matching relation for pending edges:
// a pending call has return-successor Pending (the paper's +∞) and a pending
// return has call-predecessor Pending (the paper's −∞).
const Pending = -1

// Position is a single labelled position of a nested word.
type Position struct {
	// Symbol is the label drawn from the alphabet Σ.
	Symbol string
	// Kind says whether the position is a call, internal, or return.
	Kind Kind
}

// NestedWord is a nested word n = (a1...aℓ, ;): a sequence of labelled
// positions whose kinds induce the matching relation.  The zero value is the
// empty nested word.  NestedWord values are immutable once built; all
// operations return fresh words.
type NestedWord struct {
	positions []Position

	// matching caches the result of computeMatching: for every position i,
	// match[i] is the matched position (return-successor for calls,
	// call-predecessor for returns), Pending for pending edges, and -2 for
	// internals.  Built lazily.
	match []int
	// depth caches the nesting depth.
	depth int
	// matched reports whether match/depth have been computed.
	matched bool
}

const unmatchedInternal = -2

// New builds a nested word from a sequence of positions.  The kinds alone
// determine the matching relation, so any sequence is a valid nested word
// (possibly with pending calls and returns).
func New(positions ...Position) *NestedWord {
	nw := &NestedWord{positions: append([]Position(nil), positions...)}
	return nw
}

// Empty returns the empty nested word.
func Empty() *NestedWord { return New() }

// Len returns the length ℓ of the nested word (its linear complexity).
func (n *NestedWord) Len() int { return len(n.positions) }

// At returns the position at 0-based index i.  It panics if i is out of
// range, mirroring slice indexing.
func (n *NestedWord) At(i int) Position { return n.positions[i] }

// SymbolAt returns the symbol labelling position i.
func (n *NestedWord) SymbolAt(i int) string { return n.positions[i].Symbol }

// KindAt returns the kind of position i.
func (n *NestedWord) KindAt(i int) Kind { return n.positions[i].Kind }

// Positions returns a copy of the underlying position sequence.
func (n *NestedWord) Positions() []Position {
	return append([]Position(nil), n.positions...)
}

// ensureMatching computes the matching relation if it has not been computed
// yet.  The computation is the standard single left-to-right stack scan:
// calls are pushed, returns pop the most recent unmatched call (or become
// pending returns when the stack is empty).
func (n *NestedWord) ensureMatching() {
	if n.matched {
		return
	}
	match := make([]int, len(n.positions))
	var stack []int
	depth, maxDepth := 0, 0
	for i, p := range n.positions {
		switch p.Kind {
		case Internal:
			match[i] = unmatchedInternal
		case Call:
			match[i] = Pending
			stack = append(stack, i)
			depth = len(stack)
			if depth > maxDepth {
				maxDepth = depth
			}
		case Return:
			if len(stack) == 0 {
				match[i] = Pending
			} else {
				j := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				match[i] = j
				match[j] = i
			}
		}
	}
	n.match = match
	n.depth = maxDepth
	n.matched = true
}

// ReturnSuccessor returns the return-successor of call position i, i.e. the
// unique j with i ; j.  If i is a pending call it returns Pending, and ok
// is false when i is not a call at all.
func (n *NestedWord) ReturnSuccessor(i int) (j int, ok bool) {
	if i < 0 || i >= len(n.positions) || n.positions[i].Kind != Call {
		return 0, false
	}
	n.ensureMatching()
	return n.match[i], true
}

// Depth returns the nesting depth of the word (Section 2.1): the maximum
// number of hierarchical edges that are simultaneously "open".
func (n *NestedWord) Depth() int {
	n.ensureMatching()
	return n.depth
}

// IsWellMatched reports whether every call has a return-successor and every
// return has a call-predecessor (the set WNW(Σ) of Section 2.1).
func (n *NestedWord) IsWellMatched() bool {
	n.ensureMatching()
	for i, p := range n.positions {
		if p.Kind != Internal && n.match[i] == Pending {
			return false
		}
	}
	return true
}

// IsRooted reports whether the word is rooted, i.e. position 1 and position
// ℓ are matched with each other (1 ; ℓ in the paper's 1-based indexing).
// Rooted words are necessarily well-matched.
func (n *NestedWord) IsRooted() bool {
	if len(n.positions) == 0 {
		return false
	}
	n.ensureMatching()
	return n.positions[0].Kind == Call && n.match[0] == len(n.positions)-1
}

// IsTreeWord reports whether the nested word is a tree word (Section 2.3):
// rooted, no internal positions, and matching calls and returns carry the
// same symbol.  Tree words are exactly the images of ordered trees under
// t_nw.
func (n *NestedWord) IsTreeWord() bool {
	if !n.IsRooted() {
		return false
	}
	for i, p := range n.positions {
		switch p.Kind {
		case Internal:
			return false
		case Call:
			j := n.match[i]
			if j == Pending || n.positions[j].Symbol != p.Symbol {
				return false
			}
		}
	}
	return true
}

// PendingCalls returns the positions of calls without a matching return, in
// increasing order.
func (n *NestedWord) PendingCalls() []int {
	n.ensureMatching()
	var out []int
	for i, p := range n.positions {
		if p.Kind == Call && n.match[i] == Pending {
			out = append(out, i)
		}
	}
	return out
}

// PendingReturns returns the positions of returns without a matching call,
// in increasing order.
func (n *NestedWord) PendingReturns() []int {
	n.ensureMatching()
	var out []int
	for i, p := range n.positions {
		if p.Kind == Return && n.match[i] == Pending {
			out = append(out, i)
		}
	}
	return out
}

// Alphabet returns the set of symbols occurring in the word, sorted.
func (n *NestedWord) Alphabet() []string {
	seen := map[string]bool{}
	var out []string
	for _, p := range n.positions {
		if !seen[p.Symbol] {
			seen[p.Symbol] = true
			out = append(out, p.Symbol)
		}
	}
	sortStrings(out)
	return out
}

// Equal reports whether two nested words are identical (same length, same
// symbols, same kinds — and therefore the same matching relation).
func (n *NestedWord) Equal(m *NestedWord) bool {
	if n.Len() != m.Len() {
		return false
	}
	for i := range n.positions {
		if n.positions[i] != m.positions[i] {
			return false
		}
	}
	return true
}

// String renders the nested word in the tagged notation of Figure 1:
// ⟨a for calls, a for internals, a⟩ for returns, separated by spaces.
func (n *NestedWord) String() string {
	if len(n.positions) == 0 {
		return "ε"
	}
	parts := make([]string, len(n.positions))
	for i, p := range n.positions {
		switch p.Kind {
		case Call:
			parts[i] = "<" + p.Symbol
		case Return:
			parts[i] = p.Symbol + ">"
		default:
			parts[i] = p.Symbol
		}
	}
	return strings.Join(parts, " ")
}

// Counts returns the number of calls, internals, and returns in the word.
func (n *NestedWord) Counts() (calls, internals, returns int) {
	for _, p := range n.positions {
		switch p.Kind {
		case Call:
			calls++
		case Internal:
			internals++
		case Return:
			returns++
		}
	}
	return
}

// sortStrings is a tiny insertion sort to avoid importing sort for a
// handful of symbols on hot paths; alphabets are small.
func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
