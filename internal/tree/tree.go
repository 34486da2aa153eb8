// Package tree implements ordered (unranked) trees and their encodings as
// nested words, following Section 2.3 of "Marrying Words and Trees"
// (Alur, PODS 2007).
//
// The set OT(Σ) of ordered trees over Σ is defined inductively: ε is the
// empty tree, and a(t1,...,tn) is the tree with an a-labelled root and the
// non-empty children t1...tn in that order.  Binary and ranked trees are the
// obvious special cases and need no separate representation.
//
// The encoding t_w prints an a-labelled node as an a-labelled call, then the
// children in order, then an a-labelled return; t_nw = w_nw ∘ t_w is a
// bijection between OT(Σ) and the tree words TW(Σ), with inverse nw_t.
package tree

import (
	"fmt"
	"strings"

	"repro/internal/nestedword"
)

// Tree is an ordered unranked tree.  The nil *Tree is the empty tree ε.
// Children are non-empty by construction (the constructor drops nil
// children, mirroring the paper's requirement that each ti ≠ ε).
type Tree struct {
	// Label is the symbol at the root.
	Label string
	// Children are the ordered, non-empty subtrees.
	Children []*Tree
}

// New builds the tree a(children...).  Nil (empty) children are dropped, so
// New("a") is the leaf a().
func New(label string, children ...*Tree) *Tree {
	kept := make([]*Tree, 0, len(children))
	for _, c := range children {
		if c != nil {
			kept = append(kept, c)
		}
	}
	return &Tree{Label: label, Children: kept}
}

// Leaf builds the single-node tree a().
func Leaf(label string) *Tree { return New(label) }

// Size returns the number of nodes.
func (t *Tree) Size() int {
	if t == nil {
		return 0
	}
	n := 1
	for _, c := range t.Children {
		n += c.Size()
	}
	return n
}

// Equal reports structural equality of two trees.
func (t *Tree) Equal(u *Tree) bool {
	if t == nil || u == nil {
		return t == nil && u == nil
	}
	if t.Label != u.Label || len(t.Children) != len(u.Children) {
		return false
	}
	for i := range t.Children {
		if !t.Children[i].Equal(u.Children[i]) {
			return false
		}
	}
	return true
}

// String renders the tree in the term notation of the paper, e.g.
// "a(a(),b())" for the tree of Figure 1.
func (t *Tree) String() string {
	if t == nil {
		return "ε"
	}
	var b strings.Builder
	t.writeTerm(&b)
	return b.String()
}

func (t *Tree) writeTerm(b *strings.Builder) {
	b.WriteString(t.Label)
	b.WriteByte('(')
	for i, c := range t.Children {
		if i > 0 {
			b.WriteByte(',')
		}
		c.writeTerm(b)
	}
	b.WriteByte(')')
}

// CountLabel returns the number of nodes labelled sym.
func (t *Tree) CountLabel(sym string) int {
	if t == nil {
		return 0
	}
	n := 0
	if t.Label == sym {
		n = 1
	}
	for _, c := range t.Children {
		n += c.CountLabel(sym)
	}
	return n
}

// FullBinary builds the full binary tree of the given depth (depth 1 is a
// single leaf) with every node labelled label.  It is the workload of the
// Theorem 9 pumping argument (Figure 2).
func FullBinary(label string, depth int) *Tree {
	if depth <= 0 {
		return nil
	}
	if depth == 1 {
		return Leaf(label)
	}
	return New(label, FullBinary(label, depth-1), FullBinary(label, depth-1))
}

// Stem builds a unary chain of n label-labelled nodes terminated by the
// given subtree: label(label(...(subtree)...)).  With subtree == nil it is a
// path of n nodes.  It is the other half of the Figure 2 workload.
func Stem(label string, n int, subtree *Tree) *Tree {
	t := subtree
	for i := 0; i < n; i++ {
		if t == nil {
			t = Leaf(label)
		} else {
			t = New(label, t)
		}
	}
	return t
}

// ParseTerm parses the term notation produced by String, e.g. "a(b(),c(d()))".
// Leaves may be written either "a()" or just "a".  The empty input (or "ε")
// is the empty tree.
func ParseTerm(s string) (*Tree, error) {
	p := &termParser{input: strings.TrimSpace(s)}
	if p.input == "" || p.input == "ε" {
		return nil, nil
	}
	t, err := p.parseTree()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.input) {
		return nil, fmt.Errorf("tree: trailing input at offset %d in %q", p.pos, p.input)
	}
	return t, nil
}

type termParser struct {
	input string
	pos   int
}

func (p *termParser) skipSpace() {
	for p.pos < len(p.input) && (p.input[p.pos] == ' ' || p.input[p.pos] == '\t') {
		p.pos++
	}
}

func (p *termParser) parseTree() (*Tree, error) {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.input) && !strings.ContainsRune("(),", rune(p.input[p.pos])) && p.input[p.pos] != ' ' {
		p.pos++
	}
	label := p.input[start:p.pos]
	if label == "" {
		return nil, fmt.Errorf("tree: expected a label at offset %d in %q", start, p.input)
	}
	p.skipSpace()
	if p.pos >= len(p.input) || p.input[p.pos] != '(' {
		return Leaf(label), nil
	}
	p.pos++ // consume '('
	p.skipSpace()
	var children []*Tree
	if p.pos < len(p.input) && p.input[p.pos] == ')' {
		p.pos++
		return New(label, children...), nil
	}
	for {
		child, err := p.parseTree()
		if err != nil {
			return nil, err
		}
		children = append(children, child)
		p.skipSpace()
		if p.pos >= len(p.input) {
			return nil, fmt.Errorf("tree: unterminated child list in %q", p.input)
		}
		switch p.input[p.pos] {
		case ',':
			p.pos++
		case ')':
			p.pos++
			return New(label, children...), nil
		default:
			return nil, fmt.Errorf("tree: unexpected character %q at offset %d in %q", p.input[p.pos], p.pos, p.input)
		}
	}
}

// ToNestedWord implements t_nw: it encodes the ordered tree as a tree word.
// The empty tree maps to the empty nested word.
func ToNestedWord(t *Tree) *nestedword.NestedWord {
	var ps []nestedword.Position
	var walk func(*Tree)
	walk = func(u *Tree) {
		if u == nil {
			return
		}
		ps = append(ps, nestedword.Position{Symbol: u.Label, Kind: nestedword.Call})
		for _, c := range u.Children {
			walk(c)
		}
		ps = append(ps, nestedword.Position{Symbol: u.Label, Kind: nestedword.Return})
	}
	walk(t)
	return nestedword.New(ps...)
}

// FromNestedWord implements nw_t: it decodes a tree word back into the
// ordered tree it represents.  It returns an error when the nested word is
// not a tree word (Section 2.3: rooted, no internals, matching positions
// agree on the symbol); the empty nested word decodes to the empty tree.
func FromNestedWord(n *nestedword.NestedWord) (*Tree, error) {
	if n.Len() == 0 {
		return nil, nil
	}
	if !n.IsTreeWord() {
		return nil, fmt.Errorf("tree: nested word %v is not a tree word", n)
	}
	t, next := decodeSubtree(n, 0)
	if next != n.Len() {
		return nil, fmt.Errorf("tree: tree word %v decodes with trailing positions", n)
	}
	return t, nil
}

// decodeSubtree decodes the rooted subword starting at call position i of a
// (validated) tree word and returns the subtree plus the position
// just after its return.
func decodeSubtree(n *nestedword.NestedWord, i int) (*Tree, int) {
	label := n.SymbolAt(i)
	ret, _ := n.ReturnSuccessor(i)
	var children []*Tree
	j := i + 1
	for j < ret {
		child, next := decodeSubtree(n, j)
		children = append(children, child)
		j = next
	}
	return New(label, children...), ret + 1
}
